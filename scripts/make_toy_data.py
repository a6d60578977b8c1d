#!/usr/bin/env python3
"""Regenerate the committed desk-scale fixture data under tests/data/toy.

Two pseudo-languages keep the fixture self-contained:

* ``zz`` articles are written with Han characters so the CJK bigram
  tokenizer gets exercised.  Titles and aliases draw from one codepoint
  band and body words from a disjoint band, so body fragments can never
  contain a title and anonymity holds by construction even when the
  mock provider echoes article text.
* ``en`` articles use two disjoint English word pools (titles vs
  bodies) with the same guarantee.

Roughly half the zz articles link to an en article (plus a few dangling
links to exercise demotion).  The script also emits real-query fixtures
with qrels, two external run files covering them, zz prompt templates,
and a reference pipeline config, then runs the pipeline's ``ingest``,
``partition`` and ``sample`` stages on that config in a temporary directory
to check that the corpora cover its sampling targets.  Everything is
deterministic; rerunning the script must reproduce the committed files
byte for byte.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from totsim.cli import COMMANDS, load_config  # noqa: E402
from totsim.errors import TotsimError  # noqa: E402
from totsim.util import dump_json, read_json  # noqa: E402

OUT = REPO / "tests" / "data" / "toy"

ZZ_DOCS = 320
EN_DOCS = 260
LINKED = 170
DANGLING = 5
REAL_PER_PARTITION = 12

TITLE_BAND = (0x4E00, 0x5000)
BODY_BAND = (0x5200, 0x6300)
BODY_UNITS = 220

# Every word contains at least one letter outside a-f, so no title can
# ever appear inside a hex digest emitted by the mock provider.
EN_TITLE_POOL = [
    "quartz", "willow", "zephyr", "syntax", "vortex", "jungle", "wizard",
    "pylon", "zigzag", "oxygen", "lagoon", "tundra", "velvet", "nougat",
    "walnut", "yonder", "zodiac", "quiver", "molten", "nimbus", "osprey",
    "python", "rustic", "saffron", "tangent", "umbral", "volute", "whistle",
    "xylem", "yarrow", "zircon", "granite", "harrow", "indigo", "jasper",
    "kestrel", "lumen", "meridian", "northern", "opaline",
]

EN_BODY_POOL = [
    "river", "harbor", "signal", "memory", "garden", "winter", "candle",
    "mirror", "spiral", "thunder", "village", "anchor", "bridge", "canyon",
    "desert", "ember", "forest", "glacier", "hollow", "island", "journey",
    "kettle", "ladder", "meadow", "needle", "orchard", "palace", "quarry",
    "ribbon", "shadow", "temple", "upland", "valley", "window", "yellow",
    "zenith", "archive", "beacon", "cellar", "doorway", "engine", "feather",
    "gateway", "horizon", "ironwork", "jigsaw", "keystone", "lantern",
    "machine", "nocturne", "outpost", "pasture", "quicksand", "railway",
    "seawall", "terrace", "undertow", "viaduct", "waterfall", "yardstick",
    "ballad", "current", "draught", "estuary", "furnace", "grove", "harvest",
    "inlet", "junction", "knoll", "lighthouse", "monsoon", "nursery",
    "overpass", "paddock", "quayside", "ridge", "steeple", "tideline",
    "uplift", "vestibule", "wharf", "yawl", "alcove", "bastion", "cascade",
]


def han_word(rng: random.Random, band: tuple[int, int], length: int) -> str:
    return "".join(chr(rng.randrange(*band)) for _ in range(length))


def join_mixed(words: list[str]) -> str:
    """Join CJK-style (no separators) but keep adjacent ASCII words apart."""
    pieces: list[str] = []
    previous_ascii = False
    for word in words:
        current_ascii = word[:1].isascii()
        if previous_ascii and current_ascii:
            pieces.append(" ")
        pieces.append(word)
        previous_ascii = word[-1:].isascii()
    return "".join(pieces)


def distinct(draw: Callable[[int], str], count: int) -> list[str]:
    """The first ``count`` distinct results of ``draw(number of distinct results so far)``."""
    drawn: dict[str, None] = {}
    while len(drawn) < count:
        drawn.setdefault(draw(len(drawn)))
    return list(drawn)


def make_zz_titles(rng: random.Random, count: int) -> list[str]:
    return distinct(lambda _: han_word(rng, TITLE_BAND, rng.choice((2, 3, 3))), count)


def make_en_titles(rng: random.Random, count: int) -> list[str]:
    """Distinct titles of two pool words until every pair is used, then of three, and so on."""

    def draw(drawn: int) -> str:
        words, limit = 2, len(EN_TITLE_POOL) ** 2
        while drawn >= limit:
            words += 1
            limit += len(EN_TITLE_POOL) ** words
        return " ".join(rng.choice(EN_TITLE_POOL).capitalize() for _ in range(words))

    return distinct(draw, count)


def pick_views(rng: random.Random) -> int:
    views = rng.randrange(0, 50_000)
    if rng.random() < 0.1:
        views = (views // 1000) * 1000
    return views


def pick_classes(rng: random.Random) -> list[str]:
    roll = rng.random()
    if roll < 0.12:
        return ["Q5"]
    if roll < 0.24:
        return [rng.choice(("Q11424", "Q202866"))]
    if roll < 0.30:
        return ["Q999999"]
    return []


def en_alias(rng: random.Random) -> str:
    return f"{rng.choice(EN_TITLE_POOL).capitalize()} {rng.choice(EN_TITLE_POOL)}"


def zz_alias(rng: random.Random) -> str:
    return han_word(rng, TITLE_BAND, rng.choice((2, 3)))


def article(
    rng: random.Random, alias_chance: float, alias: Callable[[random.Random], str], **fields
) -> dict:
    """A corpus row of ``fields``, views and classes, and one ``alias`` with ``alias_chance``."""
    row = {**fields, "views": pick_views(rng), "instance_of": pick_classes(rng)}
    if rng.random() < alias_chance:
        row["aliases"] = [alias(rng)]
    return row


def zz_body(
    rng: random.Random, units: list[str], loanwords: list[str]
) -> tuple[str, list[str]]:
    """Compose a Han body, optionally sprinkled with Latin loanwords.

    Linked articles borrow a few words from their English counterpart,
    the way real CJK encyclopedia pages embed Latin names and terms.
    """
    if rng.random() < 0.08:
        word_count = rng.randrange(20, 60)
    else:
        word_count = rng.randrange(120, 420)
    words = [rng.choice(units) for _ in range(word_count)]
    for loanword in loanwords:
        words.insert(rng.randrange(len(words) + 1), loanword)
    pieces: list[str] = []
    gap = rng.randrange(8, 14)
    for i, word in enumerate(words, start=1):
        pieces.append(word)
        if i % gap == 0:
            pieces.append("。")
    return join_mixed(pieces), words


def en_body(rng: random.Random) -> tuple[str, list[str]]:
    if rng.random() < 0.08:
        word_count = rng.randrange(10, 28)
    else:
        word_count = rng.randrange(60, 380)
    words = [rng.choice(EN_BODY_POOL) for _ in range(word_count)]
    sentences: list[str] = []
    i = 0
    while i < len(words):
        step = rng.randrange(6, 12)
        sentences.append(" ".join(words[i : i + step]) + ".")
        i += step
    return " ".join(sentences), words


def main() -> None:
    rng = random.Random("totsim-toy/v1")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "templates").mkdir(exist_ok=True)

    units = sorted({han_word(rng, BODY_BAND, 2) for _ in range(BODY_UNITS * 2)})[:BODY_UNITS]
    zz_titles = make_zz_titles(rng, ZZ_DOCS)
    en_titles = make_en_titles(rng, EN_DOCS)

    en_ids = [f"en{i:04d}" for i in range(1, EN_DOCS + 1)]
    zz_ids = [f"zz{i:04d}" for i in range(1, ZZ_DOCS + 1)]
    linked_zz = sorted(rng.sample(zz_ids, LINKED + DANGLING))
    linked_en = rng.sample(en_ids, LINKED)
    links = dict(zip(linked_zz[:LINKED], linked_en))
    for i, doc_id in enumerate(linked_zz[LINKED:]):
        links[doc_id] = f"en{9990 + i}"

    body_words: dict[str, list[str]] = {}
    rows: dict[str, list[dict]] = {"en": [], "zz": []}
    for doc_id, title in zip(en_ids, en_titles):
        text, body_words[doc_id] = en_body(rng)
        rows["en"].append(article(rng, 0.25, en_alias, id=doc_id, title=title, text=text))
    for doc_id, title in zip(zz_ids, zz_titles):
        # a linked article borrows loanwords from its English counterpart
        pool = sorted(set(body_words.get(links.get(doc_id), ())))
        text, body_words[doc_id] = zz_body(rng, units, rng.sample(pool, min(12, len(pool))))
        row = article(rng, 0.3, zz_alias, id=doc_id, title=title, text=text)
        if doc_id in links:
            row["en_id"] = links[doc_id]
        rows["zz"].append(row)
    for code, corpus in rows.items():
        (OUT / f"corpus_{code}.jsonl").write_text(
            "".join(dump_json(row) + "\n" for row in corpus), encoding="utf-8"
        )

    # Real query fixtures: body-word samples from well-covered targets in
    # each partition, with a little cross-document noise.
    rich = [doc_id for doc_id in zz_ids if len(body_words[doc_id]) >= 120]
    mono_rich = [d for d in rich if d not in links or links[d] not in set(linked_en)]
    bi_rich = [d for d in rich if d in links and links[d] in set(linked_en)]
    targets = sorted(rng.sample(mono_rich, REAL_PER_PARTITION)) + sorted(
        rng.sample(bi_rich, REAL_PER_PARTITION)
    )
    query_lines = []
    qrel_lines = []
    for i, doc_id in enumerate(targets, start=1):
        qid = f"real-zz-{i:04d}"
        # Two recalled phrases (contiguous spans) plus one stray word from
        # another article, roughly how a re-finding query mixes sharp
        # fragments with noise.
        words = body_words[doc_id]
        first = rng.randrange(len(words) - 6)
        second = rng.randrange(len(words) - 6)
        noise_doc = rng.choice([d for d in rich if d != doc_id])
        noise = rng.sample(body_words[noise_doc], 1)
        text = join_mixed(
            words[first : first + 6] + ["。"] + words[second : second + 6] + noise
        )
        query_lines.append(f"{qid}\t{text}\n")
        qrel_lines.append(f"{qid} 0 {doc_id} 1\n")
    (OUT / "real_queries_zz.tsv").write_text("".join(query_lines), encoding="utf-8")
    (OUT / "real_qrels_zz.txt").write_text("".join(qrel_lines), encoding="utf-8")

    # External run fixtures: each system places the target at a different
    # hash-spread rank among filler documents.
    for tag, spread, offset in (("dense-a", 12, 0), ("dense-b", 28, 3)):
        lines = []
        for i, doc_id in enumerate(targets, start=1):
            qid = f"real-zz-{i:04d}"
            target_rank = (i * 7 + offset) % spread + 1
            fillers = [d for d in zz_ids if d != doc_id]
            rng.shuffle(fillers)
            ranking = fillers[:30]
            ranking.insert(target_rank - 1, doc_id)
            for rank, ranked_doc in enumerate(ranking[:30], start=1):
                score = float(40 - rank)
                lines.append(f"{qid} Q0 {ranked_doc} {rank} {score} {tag}\n")
        (OUT / f"{tag}.run").write_text("".join(lines), encoding="utf-8")

    summarize_zz = (
        "".join(rng.choice(units) for _ in range(6))
        + "。\n\n{content}\n"
    )
    generate_zz = (
        "".join(rng.choice(units) for _ in range(6))
        + "。\n{output_language_instruction}\n{content}\n"
    )
    (OUT / "templates" / "summarize_zz.txt").write_text(summarize_zz, encoding="utf-8")
    (OUT / "templates" / "generate_zz.txt").write_text(generate_zz, encoding="utf-8")

    config_text = """\
# Reference pipeline config for the desk-scale fixture corpus.
# Outputs land in ./out next to this file.
seed: 7
output_dir: out
workers: 1
english_corpus: corpus_en.jsonl
languages:
  zz:
    corpus: corpus_zz.jsonl
    tokenizer: cjk-ngram
    real_queries: real_queries_zz.tsv
    real_qrels: real_qrels_zz.txt
    external_runs:
      dense-a: dense-a.run
      dense-b: dense-b.run
  en:
    corpus: corpus_en.jsonl
corpus_filters:
  popularity_top_fraction: 0.5
  min_chars: 200
sampling:
  bucket_count: 10
  target_count: 40
generation:
  provider: mock
translation:
  provider: identity
retrieval:
  depth: 1000
templates_dir: templates
"""
    (OUT / "config.yaml").write_text(config_text, encoding="utf-8")

    verify()


def verify() -> None:
    """Run ``ingest``, ``partition`` and ``sample`` on the written config, outside ``OUT``.

    A pool that cannot cover the config's targets stops the script with the
    ``sample`` stage's own error.
    """
    with tempfile.TemporaryDirectory() as scratch:
        config = load_config(OUT / "config.yaml", overrides={"output_dir": scratch})
        try:
            for stage in ("ingest", "partition", "sample"):
                COMMANDS[stage](config, False)
        except TotsimError as exc:
            raise SystemExit(f"{stage}: {exc}; adjust generator constants") from exc
        counts = read_json(config.output_dir / "sample" / "manifest.json")["sample_counts"]
    for name, count in counts.items():
        print(f"{name}: pool {count['pool']} covers {count['sampled']}")
    print(f"wrote fixture data to {OUT}")


if __name__ == "__main__":
    main()
