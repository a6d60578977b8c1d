"""One pipeline run in a fresh process: a cold run, then the resume passes.

Usage: python3 perfbench/child.py SPEC.json

SPEC.json names the source tree, the config, the output directory, the stages
to run, the per-call provider delay, the number of timed resume passes,
whether to trace, and where to write the result.  A fresh process per cold
run gives each run its own memory high-water mark.

The stages are dispatched through ``totsim.cli.COMMANDS`` after
``totsim.cli.load_config``, as ``totsim pipeline`` does, with the timer
around the whole sequence.  A resume pass repeats the same sequence; every
stage must skip, so no file of the output tree may be rewritten.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import resource
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path


class CountingProvider:
    """The workload's view of the configured provider: counts calls, adds latency."""

    def __init__(self, inner, delay_s: float):
        self.inner = inner
        self.name = inner.name
        self.delay_s = delay_s
        self.calls = 0
        self.requests: set[str] = set()
        self._lock = threading.Lock()

    def complete(self, prompt: str, temperature: float) -> str:
        key = hashlib.sha256(f"{temperature!r}|{prompt}".encode("utf-8")).hexdigest()
        with self._lock:
            self.calls += 1
            self.requests.add(key)
        if self.delay_s:
            time.sleep(self.delay_s)
        return self.inner.complete(prompt, temperature)


def peak_rss() -> int:
    """This process image's resident-memory high-water mark, in KiB.

    ``getrusage`` would report at least the parent's peak, which the kernel
    carries across fork and exec; ``VmHWM`` starts afresh with the exec.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def tree_state(root: Path) -> dict[str, tuple[int, int, int]]:
    """(size, mtime, inode) of every file: a rewritten file changes at least one."""
    state = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            info = os.stat(path)
            state[os.path.relpath(path, root)] = (info.st_size, info.st_mtime_ns, info.st_ino)
    return state


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    files = sorted(
        os.path.relpath(os.path.join(dirpath, name), root)
        for dirpath, _dirs, names in os.walk(root)
        for name in names
    )
    for rel in files:
        digest.update(rel.encode("utf-8") + b"\0")
        with open(os.path.join(root, rel), "rb") as handle:
            digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def no_span(name: str, **attrs):
    return nullcontext()


def probe_resume(cli, config_path: Path, out: Path, stages, span) -> dict:
    """Rerun the stages once, noting which left the output tree untouched."""
    skipped = 0
    with span("resume"):
        config = cli.load_config(config_path, overrides={"output_dir": str(out)})
        for stage in stages:
            before = tree_state(out)
            with span(f"resume.{stage}"):
                cli.COMMANDS[stage](config, False)
            skipped += tree_state(out) == before
    return {"stages_skipped": skipped, "stages_total": len(stages)}


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import totsim.cli as cli
    import totsim.config
    import totsim.retrieval

    from spans import Tracer

    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install(
            {"totsim.cli": cli, "totsim.config": totsim.config, "totsim.retrieval": totsim.retrieval}
        )
    span = tracer.span if tracer is not None else no_span

    providers: list[CountingProvider] = []
    make_generator = totsim.config.PipelineConfig.make_generator

    def counted_generator(self):
        provider = CountingProvider(make_generator(self), spec["call_delay_s"])
        providers.append(provider)
        if tracer is not None:
            provider.complete = tracer.wrap("provider.complete", provider.complete)
        return provider

    totsim.config.PipelineConfig.make_generator = counted_generator

    config_path = Path(spec["config"])
    out = Path(spec["out"])
    stages = spec["stages"]

    start = time.perf_counter()
    config = cli.load_config(config_path, overrides={"output_dir": str(out)})
    for stage in stages:
        with span(f"stage.{stage}"):
            cli.COMMANDS[stage](config, False)
    pipeline_s = time.perf_counter() - start
    peak_rss_kib = peak_rss()

    cold_state = tree_state(out)
    cold_digest = tree_digest(out)
    result = {
        "pipeline_s": pipeline_s,
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "out_bytes": sum(size for size, _mtime, _ino in cold_state.values()),
        "provider_calls": sum(p.calls for p in providers),
        "provider_unique_requests": len(set().union(*(p.requests for p in providers))),
        "digest": cold_digest,
    }
    result.update(probe_resume(cli, config_path, out, stages, span))

    resume_s = []
    for _ in range(spec["resume_passes"]):
        pass_start = time.perf_counter()
        config = cli.load_config(config_path, overrides={"output_dir": str(out)})
        for stage in stages:
            cli.COMMANDS[stage](config, False)
        resume_s.append(time.perf_counter() - pass_start)
    result["resume_s"] = resume_s
    result["resume_untouched"] = tree_state(out) == cold_state
    result["resume_digest"] = tree_digest(out)
    if tracer is not None:
        tracer.write(Path(spec["spans"]))
        result["absent_targets"] = tracer.absent
        result["run_id"] = tracer.run_id
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
