"""The benchmark's own tests: every correctness check passes on a clean toy run
and fires on a deliberately corrupted copy of its output.

Usage (from the repository root; runs the toy pipeline once, about 15 s):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
import types
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import totsim.cli as cli  # noqa: E402
import workloads  # noqa: E402
from child import no_span, probe_resume, tree_digest, tree_state  # noqa: E402
from totsim.config import load_config  # noqa: E402


class Tracing(unittest.TestCase):
    def test_missing_wrap_targets_are_reported_not_fatal(self) -> None:
        class Tokenizer:
            def tokenize(self, text):
                return text.split()

        tracer = spans.Tracer()
        tracer.install(
            {
                "totsim.cli": types.SimpleNamespace(load_config=lambda path: path),
                "totsim.config": types.SimpleNamespace(),
                "totsim.retrieval": types.SimpleNamespace(Tokenizer=Tokenizer),
            }
        )
        self.assertIn("score_bm25", tracer.absent)
        self.assertIn("PipelineConfig.content_hash", tracer.absent)
        self.assertNotIn("Tokenizer.tokenize", tracer.absent)
        self.assertEqual(Tokenizer().tokenize("a b"), ["a", "b"])
        self.assertEqual([span["name"] for span in tracer.spans], ["Tokenizer.tokenize"])

    def test_self_time_excludes_children_and_worker_threads_find_their_parent(self) -> None:
        tracer = spans.Tracer()

        def work():
            with tracer.span("on-worker"):
                pass

        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        by_name = {span["name"]: span for span in tracer.spans}
        outer = by_name["outer"]
        self.assertEqual(by_name["inner"]["parent"], outer["id"])
        self.assertEqual(by_name["on-worker"]["parent"], outer["id"])
        self.assertIsNone(outer["parent"])
        self.assertEqual({span["run_id"] for span in tracer.spans}, {tracer.run_id})
        own = spans.self_times(tracer.spans)
        children = sum(by_name[n]["end"] - by_name[n]["start"] for n in ("inner", "on-worker"))
        self.assertAlmostEqual(own[outer["id"]], outer["end"] - outer["start"] - children, places=9)


class CorruptedOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.work = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        toy = workloads.WORKLOADS["toy"]
        cls.config_path = workloads.setup(toy, run.ROOT, cls.work / "input", seed=7)
        cls.clean = cls.work / "out"
        spec = {
            "src": str(run.ROOT / "src"),
            "config": str(cls.config_path),
            "out": str(cls.clean),
            "stages": list(toy.stages),
            "call_delay_s": 0.0,
            "resume_passes": 1,
            "trace": False,
        }
        cls.result = run.run_child(spec, cls.work, "clean")
        if cls.result is None:
            raise RuntimeError("toy pipeline failed; see the log above")

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(cls.work, ignore_errors=True)

    def copy(self, name: str) -> Path:
        dest = self.work / name
        shutil.copytree(self.clean, dest)
        return dest

    def config(self, out: Path):
        return load_config(self.config_path, overrides={"output_dir": str(out)})

    def test_clean_run_passes_every_check(self) -> None:
        config = self.config(self.clean)
        self.assertEqual(checks.check_bundles(self.clean, config), [])
        self.assertEqual(checks.check_rankings(self.clean, config), [])
        self.assertEqual(checks.check_anonymity(self.clean, config), [])
        self.assertEqual(self.result["stages_skipped"], self.result["stages_total"])
        self.assertTrue(self.result["resume_untouched"])
        self.assertEqual(self.result["resume_digest"], self.result["digest"])

    def test_fixture_check_fires_when_set_ups_differ(self) -> None:
        other = workloads.setup(workloads.WORKLOADS["toy"], run.ROOT, self.work / "input-2", seed=7).parent
        digests = [tree_digest(self.config_path.parent), tree_digest(other)]
        self.assertEqual(checks.check_fixture_digests(digests), [])
        with open(other / "corpus_en.jsonl", "a", encoding="utf-8") as corpus:
            corpus.write("\n")
        self.assertNotEqual(checks.check_fixture_digests(digests + [tree_digest(other)]), [])

    def test_bundle_check_fires_on_a_wrong_qrel(self) -> None:
        out = self.copy("bad-bundle")
        qrels = out / "collection" / "zz" / "qrels.txt"
        lines = qrels.read_text(encoding="utf-8").splitlines(keepends=True)
        qrels.write_text("".join(lines[1:]), encoding="utf-8")
        self.assertNotEqual(checks.check_bundles(out, self.config(out)), [])

    def _rewrite_first_ranking(self, out: Path, edit) -> None:
        path = out / "search" / "zz" / "real" / "bm25-k0.9-b0.4.run"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        first = lines[0].split()[0]
        head = [line.split() for line in lines if line.split()[0] == first]
        edit(head)
        path.write_text(
            "".join(" ".join(parts) + "\n" for parts in head) + "".join(lines[len(head):]),
            encoding="utf-8",
        )

    def test_ranking_check_fires_on_swapped_documents(self) -> None:
        out = self.copy("bad-order")

        def swap(head):
            head[0][2], head[1][2] = head[1][2], head[0][2]

        self._rewrite_first_ranking(out, swap)
        self.assertNotEqual(checks.check_rankings(out, self.config(out)), [])

    def test_ranking_check_fires_on_a_score_off_by_1e_6(self) -> None:
        out = self.copy("bad-score")

        def nudge(head):
            head[5][4] = repr(float(head[5][4]) + 1e-6)

        self._rewrite_first_ranking(out, nudge)
        self.assertNotEqual(checks.check_rankings(out, self.config(out)), [])

    def test_ranking_comparison_treats_exact_ties_as_interchangeable(self) -> None:
        naive = {"d1": 2.0, "d2": 1.5, "d3": 1.5, "d4": 0.5}
        self.assertIsNone(checks.compare_ranking([("d1", 2.0), ("d3", 1.5), ("d2", 1.5)], naive, 3))
        self.assertIsNotNone(checks.compare_ranking([("d2", 1.5), ("d1", 2.0), ("d3", 1.5)], naive, 3))
        self.assertIsNotNone(checks.compare_ranking([("d1", 2.0), ("d2", 1.5), ("d4", 0.5)], naive, 3))

    def test_anonymity_check_fires_on_a_leaked_title(self) -> None:
        out = self.copy("bad-anonymity")
        config = self.config(out)
        path = out / "generate" / "zz" / "monolingual-V1.jsonl"
        rows = checks._read_jsonl(path)
        target = next(row for row in rows if not row["discarded"])
        title = next(
            doc.title
            for doc in checks.ingest_corpus(config.language("zz").corpus, "zz")
            if doc.doc_id == target["doc_id"]
        )
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(target["text"], title + target["text"], 1), encoding="utf-8")
        self.assertNotEqual(checks.check_anonymity(out, config), [])

    def _failed_checks(self, result: dict, out: Path) -> int:
        tally = checks.Tally()
        reference = {"digest": self.result["digest"]}
        checks.check_run(tally, out.name, result, out, self.config(out), workloads.STAGES, reference, oracle=False)
        return tally.failed

    def test_digest_check_fires_on_one_flipped_byte(self) -> None:
        out = self.copy("bad-byte")
        path = out / "evaluate" / "zz" / "real.jsonl"
        data = bytearray(path.read_bytes())
        data[10] ^= 1
        path.write_bytes(bytes(data))
        digest = tree_digest(out)
        self.assertEqual(self._failed_checks({**self.result, "digest": digest, "resume_digest": digest}, out), 1)

    def test_resume_check_fires_when_a_stage_reruns(self) -> None:
        out = self.copy("bad-resume")
        self.assertEqual(
            probe_resume(cli, self.config_path, out, workloads.STAGES, no_span)["stages_skipped"],
            len(workloads.STAGES),
        )
        (out / "select" / "manifest.json").unlink()
        before = tree_state(out)
        result = probe_resume(cli, self.config_path, out, workloads.STAGES, no_span)
        result.update(
            digest=self.result["digest"],
            resume_untouched=tree_state(out) == before,
            resume_digest=tree_digest(out),
        )
        self.assertLess(result["stages_skipped"], result["stages_total"])
        self.assertEqual(self._failed_checks(result, out), 1)


if __name__ == "__main__":
    unittest.main()
