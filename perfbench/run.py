"""Pipeline benchmark: run one workload, check its outputs, print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy --seed 7 --seconds 20 --trace 0

Each run is one batch job, a closed loop with one pipeline at a time.  The
workload's input directory is set up several times (``setup_s`` is the
median), then cold runs of its stage sequence follow, each in a fresh child
process (``perfbench/child.py``), until ``--seconds`` have passed and at least
two have run.  Every cold run is followed in the same process by timed resume
passes, in which every stage must skip.  Outputs are checked after each run;
failed runs and failed checks make up ``failed``, out of ``attempted``.

With ``--trace 1`` one more cold run follows with spans recorded around the
program's public functions; its per-layer numbers replace the end-to-end
ones in the result.  End-to-end numbers always come from untraced runs.

The last line of stdout is the result as one JSON object; the lines before
it show every metric by name and unit, and the run's stamp.  The full
result, and the spans of a traced run, are also written under
``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/totsim/cli.py", "tests/data/toy/config.yaml", "scripts/make_toy_data.py")

MIN_COLD_RUNS = 2
RESUME_PASSES = 200
CHILD_TIMEOUT_S = 150.0
# No cold run starts unless the previous one's duration says it ends by then.
START_DEADLINE_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("out_mb", "MiB"),
    ("model_calls_per_query", "ratio"),
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _git(*args: str) -> str | None:
    # Stop at the checkout: a parent directory's repository is not ours.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(workload: str, seed: int, fixture_digest: str | None) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "dirty": bool(status) if commit else None,
        "fixture_digest": fixture_digest,
    }


def run_child(spec: dict, work: Path, name: str) -> dict | None:
    """Run one cold pipeline in a fresh process; None if it failed."""
    spec_path = work / f"{name}.spec.json"
    spec["result"] = str(work / f"{name}.result.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = work / f"{name}.log"
    with open(log_path, "wb") as child_log:
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=ROOT,
                stdin=subprocess.DEVNULL,
                stdout=child_log,
                stderr=child_log,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            log(f"{name}: timed out after {CHILD_TIMEOUT_S:.0f} s")
            return None
    if done.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace").splitlines()[-15:]
        log(f"{name}: exit code {done.returncode}\n" + "\n".join(tail))
        return None
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def generation_counts(rows: list[dict]) -> dict:
    """Retries, discards and accepts from the generate stage's own records."""
    accepted = sum(1 for row in rows if not row["discarded"])
    return {
        "generation.anonymity_retries": (sum(row["attempts"] - 1 for row in rows), "count"),
        "generation.discards": (len(rows) - accepted, "count"),
        "generation.accept_ratio": (accepted / len(rows) if rows else 0.0, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7, help="pipeline seed (the fixture's is 7)")
    parser.add_argument("--seconds", type=float, default=40.0, help="how long the cold runs go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        log(f"error: {ROOT} is not a totsim checkout (missing {', '.join(missing)})")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
        return 2
    workload = workloads.WORKLOADS[args.workload]

    results_dir = ROOT / ".perfbench_results"
    results_dir.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(workload, args, work, results_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, args, work: Path, results_dir: Path) -> int:
    import checks
    import spans
    import workloads
    from child import tree_digest
    from totsim.config import load_config

    tally = checks.Tally()
    begin = time.perf_counter()

    setup_s: list[float] = []
    digests: list[str] = []

    def prepare(batch: int) -> Path:
        """Set the input up ``setup_repeats`` times; keep the first copy.

        Set-ups are spread over the run, a batch before each cold run, so
        their median does not hang on one moment's machine load.
        """
        kept = None
        for i in range(workload.setup_repeats):
            dest = work / f"input-{batch}-{i}"
            start = time.perf_counter()
            config_path = workloads.setup(workload, ROOT, dest, args.seed)
            setup_s.append(time.perf_counter() - start)
            digests.append(tree_digest(dest))
            if kept is None:
                kept = config_path
            else:
                shutil.rmtree(dest)
        return kept

    def child_spec(config_path: Path, out: Path, trace: bool) -> dict:
        return {
            "src": str(ROOT / "src"),
            "config": str(config_path),
            "out": str(out),
            "stages": list(workload.stages),
            "call_delay_s": workload.call_delay_s,
            "resume_passes": 0 if trace else RESUME_PASSES,
            "trace": trace,
            "spans": str(spans_path),
        }

    spans_path = results_dir / f"{workload.name}-seed{args.seed}-spans.jsonl"
    samples: list[dict] = []
    reference: dict = {}
    cold_start = time.perf_counter()
    runs = 0
    last_run_s = 0.0
    while len(samples) < MIN_COLD_RUNS or time.perf_counter() - cold_start < args.seconds:
        if runs >= MIN_COLD_RUNS and time.perf_counter() - begin + last_run_s > START_DEADLINE_S:
            break
        config_path = prepare(runs)
        out = work / f"out-{runs}"
        run_start = time.perf_counter()
        result = run_child(child_spec(config_path, out, False), work, f"cold-{runs}")
        last_run_s = time.perf_counter() - run_start
        runs += 1
        tally.attempted += 1
        if result is None:
            tally.failed += 1
            break
        config = load_config(config_path, overrides={"output_dir": str(out)})
        checks.check_run(
            tally, out.name, result, out, config, workload.stages, reference, oracle=not samples
        )
        result["accepted"] = len(checks.accepted_queries(out))
        samples.append(result)
        shutil.rmtree(out)
        shutil.rmtree(config_path.parent)
    fixture = stamp(workload.name, args.seed, digests[0])
    lines = [f"stamp {json.dumps(fixture, sort_keys=True)}"]
    metrics: dict[str, tuple[float, str]] = {}
    if samples:
        calls = statistics.median(s["provider_calls"] for s in samples)
        accepted = statistics.median(s["accepted"] for s in samples)
        resume = [t for s in samples for t in s["resume_s"]]
        values = {
            "setup_s": (statistics.median(setup_s), f"median of {len(setup_s)} set-ups"),
            "pipeline_s": (
                statistics.median(s["pipeline_s"] for s in samples),
                f"median of {len(samples)} cold runs: "
                + ", ".join(f"{s['pipeline_s']:.3f}" for s in samples),
            ),
            # One pass takes a few ms and host load only ever adds to it; the
            # passes come in bursts, one per cold run, so the median follows
            # whatever else the host was doing then.  The 10th percentile
            # does not, and still moves with the pipeline's own resume cost.
            "resume_s": (
                statistics.quantiles(resume, n=10)[0],
                f"10th percentile of {len(resume)} resume passes; median "
                f"{statistics.median(resume):.6f}",
            ),
            "peak_rss_mb": (
                statistics.median(s["peak_rss_mib"] for s in samples),
                "cold-run children: " + ", ".join(f"{s['peak_rss_mib']:.2f}" for s in samples),
            ),
            "out_mb": (statistics.median(s["out_bytes"] for s in samples) / 2**20, "output tree"),
            "model_calls_per_query": (
                calls / accepted if accepted else 0.0,
                f"{calls:g} complete calls / {accepted:g} accepted queries",
            ),
        }
        for name, unit in END_TO_END:
            value, note = values[name]
            metrics[name] = (value, unit)
            lines.append(f"{name:<24} {value:>14.6f} {unit:<6} {note}")

    if args.trace and samples:
        out = work / "out-traced"
        traced = run_child(child_spec(prepare(runs), out, True), work, "traced")
        tally.attempted += 1
        if traced is None:
            tally.failed += 1
        else:
            trace_spans = spans.read_spans(spans_path)
            layers = spans.layer_metrics(trace_spans, workload.stages, workloads.STAGES)
            layers["cli.stages_skipped"] = (traced["stages_skipped"], "count")
            layers["providers.unique_prompt_ratio"] = (
                traced["provider_unique_requests"] / traced["provider_calls"]
                if traced["provider_calls"]
                else 0.0,
                "ratio",
            )
            layers.update(generation_counts(checks.generated_records(out)))
            layers["trace.overhead_s"] = (traced["pipeline_s"] - metrics["pipeline_s"][0], "s")
            layers["trace.absent_targets"] = (len(traced["absent_targets"]), "count")
            if traced["absent_targets"]:
                log("trace: absent wrap targets: " + ", ".join(traced["absent_targets"]))
            tally.check(
                "traced/provider-calls",
                []
                if layers["providers.calls"][0] == traced["provider_calls"]
                else [f"{layers['providers.calls'][0]} spans for {traced['provider_calls']} calls"],
            )
            tally.check(
                "traced/output-digest",
                [] if traced["digest"] == reference.get("digest") else ["traced output tree differs"],
            )
            lines.append(f"trace run {traced['run_id']}: {len(trace_spans)} spans")
            for name in sorted(layers):
                value, unit = layers[name]
                lines.append(f"{name:<40} {value:>16.6f} {unit}")
            metrics = layers

    tally.check("fixture-digest", checks.check_fixture_digests(digests))
    failure_note = f"{tally.failed} failed / {tally.attempted} attempted (runs + checks)"
    ratio = tally.failed / tally.attempted
    lines.append(f"{'failure_ratio':<24} {ratio:>14.6f} {'ratio':<6} {failure_note}")
    correct = tally.failed == 0 and bool(samples)
    summary = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**summary, "stamp": fixture, "wall_s": time.perf_counter() - begin}
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"workload {workload.name}: {workload.why}")
    print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
