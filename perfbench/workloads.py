"""The benchmark's three workloads and how each one's input directory is made.

Every workload is a batch job: one pipeline at a time, driven through
``totsim.cli``.  ``setup`` writes a self-contained input directory (corpora,
real queries, external runs, templates and ``config.yaml``) and returns the
config path; the workload seed becomes the config's ``seed``.

* ``toy`` is the committed ``tests/data/toy`` fixture, all ten stages.  It is
  the reference collection and is search-bound, so a scoring or run-file
  change must show here.
* ``long-articles`` regenerates that fixture with ``scripts/make_toy_data.py``
  (loaded by path and not edited) with article bodies about 8x longer and the
  same document counts and ``target_count``.  Work moves into tokenize, index
  and ingest, and memory grows, while search grows only about 1.35x.  Scaling
  the document count instead was rejected: search dominates it completely.
* ``live-sim`` is the toy fixture with two generation workers, run from
  ``ingest`` to ``generate``.  Every provider call is counted and delayed by a
  fixed 10 ms, a scaled-down stand-in for hosted-model latency, so generation
  does nearly all the work and retrieval none.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import shutil
from dataclasses import dataclass
from pathlib import Path

import yaml

STAGES = (
    "ingest",
    "partition",
    "sample",
    "generate",
    "index",
    "search",
    "evaluate",
    "correlate",
    "select",
    "assemble",
)

# How many toy article bodies make one long-articles body.
LONG_BODY_FACTOR = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[str, ...]
    workers: int
    call_delay_s: float
    setup_repeats: int
    fixture: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy",
            why="committed toy fixture, all 10 stages plus resume; search-bound, "
            "so scoring and run-file changes show here",
            stages=STAGES,
            workers=1,
            call_delay_s=0.0,
            setup_repeats=15,
            fixture="toy",
        ),
        Workload(
            name="long-articles",
            why="toy generator with article bodies about 8x longer; moves work into "
            "tokenize, index, ingest and memory while search grows only about 1.35x",
            stages=STAGES,
            workers=1,
            call_delay_s=0.0,
            setup_repeats=3,
            fixture="long",
        ),
        Workload(
            name="live-sim",
            why="toy fixture, ingest to generate with 2 workers and a fixed 10 ms per "
            "model call; generation-bound, retrieval is never run",
            stages=STAGES[:4],
            workers=2,
            call_delay_s=0.010,
            setup_repeats=15,
            fixture="toy",
        ),
    )
}


def setup(workload: Workload, root: Path, dest: Path, seed: int) -> Path:
    """Build ``workload``'s input directory at ``dest``; return its config path."""
    if workload.fixture == "toy":
        shutil.copytree(root / "tests" / "data" / "toy", dest, ignore=shutil.ignore_patterns("out"))
    else:
        _generate_long_fixture(root / "scripts" / "make_toy_data.py", dest)
    config_path = dest / "config.yaml"
    raw = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    raw["seed"] = seed
    raw["workers"] = workload.workers
    config_path.write_text(yaml.safe_dump(raw, sort_keys=True), encoding="utf-8")
    return config_path


def _generate_long_fixture(script: Path, dest: Path) -> None:
    # A fresh module each time: the generator keeps its output path and body
    # functions as module globals, which are replaced here from outside.
    spec = importlib.util.spec_from_file_location("_perfbench_make_toy_data", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = dest
    zz_body, en_body = module.zz_body, module.en_body

    def long_zz_body(rng, units, loanwords):
        body, words = zz_body(rng, units, loanwords)
        for _ in range(LONG_BODY_FACTOR - 1):
            more_body, more_words = zz_body(rng, units, [])
            body += "。" + more_body
            words = words + more_words
        return body, words

    def long_en_body(rng):
        body, words = en_body(rng)
        for _ in range(LONG_BODY_FACTOR - 1):
            more_body, more_words = en_body(rng)
            body += " " + more_body
            words = words + more_words
        return body, words

    module.zz_body = long_zz_body
    module.en_body = long_en_body
    # The generator reports its pool coverage on stdout, which belongs to the
    # benchmark's own result here.
    with contextlib.redirect_stdout(io.StringIO()):
        module.main()
