"""One run of one benchmark workload, in a fresh process started by run.py.

Modes:
  probe  time one fresh-process set-up of the product and print it
  warm   fill the replay cache with one pass through the stub
  run    set up, run timed passes over the question list, check every
         output, and print the measurements as one JSON line

The product is imported from `src/` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracer import Tracer, children, covered, self_time  # noqa: E402

END_TO_END = {
    "questions_per_s": "1/s",
    "setup_s": "s",
    "cpu_ms_per_question": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "pipeline.questions_traced": "count",
    "pipeline.self_ms_per_question": "ms",
    "pipeline.question_ms_p50": "ms",
    "pipeline.question_ms_p99": "ms",
    "prompting.calls": "count",
    "prompting.us_per_call": "us",
    "prompting.busy_ms_per_question": "ms",
    "prompting.bytes_per_question": "B",
    "backend.generate_batch.calls": "count",
    "backend.generate_batch.self_us_per_batch": "us",
    "backend.dispatch_wait_ms_p50": "ms",
    "backend.dispatch_wait_ms_p99": "ms",
    "backend.in_flight_mean": "ratio",
    "backend.generate.calls": "count",
    "backend.generate.ms_p50": "ms",
    "backend.generate.ms_p99": "ms",
    "http.requests": "count",
    "http.connections": "count",
    "http.requests_per_connection": "ratio",
    "http.bytes_sent_per_question": "B",
    "http.bytes_received_per_question": "B",
    "http.malformed": "count",
    "http.retries": "count",
    "http.overhead_ms_p50": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.hit_us": "us",
    "cache.miss_overhead_us": "us",
    "cache.load_s": "s",
    "cache.file_bytes": "B",
    "evalkit.normalize.calls": "count",
    "evalkit.plurality_vote.calls": "count",
    "evalkit.aggregate_report.ms": "ms",
    "evalkit.path_subsample_curve.ms": "ms",
    "core.serialize.calls": "count",
    "core.serialize.us_per_record": "us",
    "core.deserialize.calls": "count",
    "core.deserialize.us_per_record": "us",
    "datasets.load_questions.ms": "ms",
    "cli.analyze.self_ms": "ms",
    "cap_efficiency": "ratio",
    "failed_path_frac": "ratio",
    "failed_question_frac": "ratio",
    "trace.overhead_ms_per_question": "ms",
    "trace.overhead_frac": "ratio",
}

# Fresh-process set-up probes per run, spread over its passes.
SETUP_PROBES = 12


def import_product():
    """Import reciteqa from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "reciteqa" / "__init__.py").is_file():
        raise SystemExit(f"no reciteqa sources under {src}")
    sys.path.insert(0, str(src))
    import reciteqa

    if Path(reciteqa.__file__).resolve().parent != (src / "reciteqa").resolve():
        raise SystemExit(f"imported reciteqa from {reciteqa.__file__}, not {src}")
    return reciteqa


class Setup:
    """What a user pays before the first question starts: importing the
    product, loading questions and prompts, and constructing the cache."""

    def __init__(self, workload: str, workdir: Path, base_url: str | None):
        from reciteqa import backend, core, datasets, pipeline, prompting

        if workload == "analyze_1k":
            from reciteqa import cli  # noqa: F401

            return
        self.questions = datasets.load_questions(workdir / "questions.jsonl", "nq")
        prompt_set = prompting.load_prompt_set(workdir / "prompts")
        pool = [e for e in prompt_set.exemplars if e.recitations]
        self.exemplars = prompting.sample_exemplars(pool, gen.SHOTS, 0)
        self.cfg = pipeline.SchemeConfig(
            scheme=core.Scheme.RECITE_ANSWER,
            recitation_params=pipeline.default_recitation_params(),
            answer_params=pipeline.default_answer_params(),
            n_paths=gen.K,
            shots=gen.SHOTS,
        )
        self.cache = None
        if workload == "recite_http":
            # Passes build their own cold caches; this one is what set-up pays.
            path = workdir / "cache-setup.jsonl"
            path.unlink(missing_ok=True)
            self.cache = backend.CachingBackend(backend.HttpBackend(base_url, gen.MODEL), path)
        elif workload == "recite_replay":
            self.cache = backend.CachingBackend(
                backend.HttpBackend(base_url, gen.MODEL), workdir / "warm_cache.jsonl"
            )


def inproc_backend(oracle: Oracle):
    """The in-process backend: a product `Backend` subclass that derives each
    completion from its prompt and inherits `generate_batch`."""
    from reciteqa.backend import Backend, GenerationResult

    class InprocBackend(Backend):
        backend_id = "perfbench-inproc"

        def __init__(self):
            self.calls = 0
            self._lock = threading.Lock()

        def generate(self, request):
            with self._lock:
                self.calls += 1
            texts = oracle.complete(request.prompt, request.params.seed, request.n_samples)
            return GenerationResult(texts=texts, meta={"model": gen.MODEL, "latency_ms": "0"})

    return InprocBackend()


def stub_stats(stats_url: str | None) -> dict:
    if not stats_url:
        return {}
    with urllib.request.urlopen(stats_url, timeout=10) as response:
        return json.loads(response.read())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Runner:
    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.workdir = Path(args.workdir)
        self.expected = json.loads((self.workdir / "expected.json").read_text(encoding="utf-8"))
        self.cpus = [int(c) for c in args.cpus.split(",")] if args.cpus else []
        self.errors: list[str] = []
        self.questions_done = 0
        self.failed_questions = 0
        self.failed_paths = 0
        self.paths_done = 0
        self.passes = 0
        self.tracer: Tracer | None = None
        self.setup = Setup(self.workload, self.workdir, args.base_url)
        if self.workload == "recite_inproc":
            self.backend = inproc_backend(Oracle.load(self.workdir / "table.json"))
        elif self.workload == "recite_replay":
            self.backend = self.setup.cache
            self.warm_size = (self.workdir / "warm_cache.jsonl").stat().st_size
        self.run_dir = self.workdir / "out"

    # -- one pass -----------------------------------------------------------

    def _backend_for_pass(self):
        if self.workload != "recite_http":
            return self.backend
        from reciteqa.backend import CachingBackend, HttpBackend

        # A cold cache for every pass, so every request reaches the stub.
        if self.passes:
            self.cache_path.unlink(missing_ok=True)
        self.cache_path = self.workdir / f"cache-{self.passes}.jsonl"
        return CachingBackend(HttpBackend(self.args.base_url, gen.MODEL), self.cache_path)

    def recite_pass(self) -> tuple[float, float]:
        from reciteqa import pipeline

        backend = self._backend_for_pass()
        calls_before = getattr(backend, "calls", 0)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        records = list(
            pipeline.run_dataset(
                self.setup.questions,
                self.setup.cfg,
                self.setup.exemplars,
                backend,
                run_dir=self.run_dir,
                max_questions_in_flight=gen.QUESTIONS_IN_FLIGHT,
                max_paths_in_flight=gen.PATHS_IN_FLIGHT,
            )
        )
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.passes += 1
        with self.untraced():
            self.check_records(records)
            if self.workload == "recite_inproc":
                self.check_inproc_calls(backend.calls - calls_before)
        return wall, cpu

    def analyze_pass(self) -> tuple[float, float]:
        from reciteqa import cli

        run_dir, out = self.workdir / "run", self.workdir / "analysis"
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", str(run_dir), "--out", str(out)])
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        with self.untraced():
            if code != 0:
                self.error(f"analyze exited {code}")
            else:
                self.check_report(out)
        return wall, cpu

    # -- checks -------------------------------------------------------------

    @contextlib.contextmanager
    def untraced(self):
        enabled = self.tracer.enabled if self.tracer else False
        if self.tracer:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.enabled = enabled

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def check_records(self, records) -> None:
        from reciteqa.core import validate

        expected = self.expected["questions"]
        ids = [q.id for q in self.setup.questions]
        if [r.question_id for r in records] != ids:
            self.error(f"pass {self.passes}: records do not match the question list in order")
        lines = (self.run_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != len(ids):
            self.error(f"pass {self.passes}: records.jsonl holds {len(lines)} lines, not {len(ids)}")
        for record in records:
            self.questions_done += 1
            self.paths_done += len(record.paths)
            want = expected[record.question_id]
            issues = validate(record)
            if issues:
                self.error(f"{record.question_id}: invalid record: {issues[:3]}")
            if record.voted_answer != want["vote"]:
                self.error(
                    f"{record.question_id}: voted {record.voted_answer!r}, expected {want['vote']!r}"
                )
            failed = [i for i, p in enumerate(record.paths) if p.failed]
            self.failed_paths += len(failed)
            if failed != want["failed_paths"]:
                self.error(
                    f"{record.question_id}: failed paths {failed}, injected {want['failed_paths']}"
                )
            if len(record.paths) != gen.K:
                self.error(f"{record.question_id}: {len(record.paths)} paths, expected {gen.K}")
            if record.paths and all(p.failed for p in record.paths):
                self.failed_questions += 1

    def check_inproc_calls(self, calls: int) -> None:
        # Answer-prompt dedup or K-path fan-in may lower the count, but never
        # below one request per question plus one per distinct recitation.
        high, low = self.expected["generate_calls"], self.expected["generate_calls_floor"]
        if not low <= calls <= high:
            self.error(f"pass made {calls} generation calls, expected {low}..{high}")

    def check_report(self, out: Path) -> None:
        want = self.expected["report"]
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            curve = (out / "curve.csv").read_text(encoding="utf-8").splitlines()
        except (OSError, ValueError) as exc:
            self.error(f"analyze output unreadable: {exc}")
            return
        n = want["n_questions"]
        got = {
            "n_questions": report.get("n_questions"),
            "em": report.get("em"),
            "category_counts": report.get("category_counts"),
            "quadrant_counts": report.get("quadrant_counts"),
            "n_failed_questions": report.get("n_failed_questions"),
        }
        expect = {
            "n_questions": n,
            "em": want["em_hits"] / n,
            "category_counts": want["category_counts"],
            "quadrant_counts": want["quadrant_counts"],
            "n_failed_questions": want["n_failed_questions"],
        }
        for key, value in expect.items():
            if got[key] != value:
                self.error(f"report.json {key} = {got[key]!r}, expected {value!r}")
        # Subsampling all K paths must reproduce the stored vote exactly.
        full = [row for row in curve[1:] if row.split(",")[0] == str(gen.K)]
        if not full or full[0].split(",")[1] != f"{want['em_hits'] / n:.6f}":
            self.error(f"curve.csv at {gen.K} paths disagrees with EM: {full}")

    def check_totals(self, stats: dict) -> None:
        if self.workload == "recite_http":
            want = self.passes * self.expected["generate_calls"]
            if stats.get("requests") != want:
                self.error(f"stub served {stats.get('requests')} requests, expected {want}")
            want = self.passes * self.expected["failed_paths"]
            if stats.get("malformed") != want:
                self.error(f"stub sent {stats.get('malformed')} malformed replies, expected {want}")
        if self.workload == "recite_replay":
            size = (self.workdir / "warm_cache.jsonl").stat().st_size
            if size != self.warm_size:
                self.error("the replay cache grew, so some request missed it")
        if self.failed_questions:
            self.error(f"{self.failed_questions} questions failed on every path")

    # -- phases -------------------------------------------------------------

    def run_passes(self, seconds: float, probes: int = 0):
        """Passes until `seconds` of pass time, with `probes` set-up probes
        spread between them, so every metric samples the same stretch of
        time on a machine whose speed drifts. Returns wall and CPU time per
        pass and the probe timings."""
        walls, cpus, setups = [], [], []
        while sum(walls) < seconds or not walls:
            wall, cpu = self.one_pass()
            walls.append(wall)
            cpus.append(cpu)
            done = min(1.0, sum(walls) / seconds)
            while len(setups) < math.ceil(probes * done):
                setups.append(self.probe())
            if self.errors:
                break
        return walls, cpus, setups

    def one_pass(self) -> tuple[float, float]:
        if self.cpus:
            os.sched_setaffinity(0, {self.cpus[self.passes % len(self.cpus)]})
        if self.workload != "analyze_1k":
            return self.recite_pass()
        self.passes += 1
        self.questions_done += len(self.expected["questions"])
        return self.analyze_pass()

    def probe(self) -> float:
        """Set-up time of a fresh process, as a user pays it."""
        argv = [sys.executable, __file__, "probe", "--workload", self.workload]
        argv += ["--workdir", str(self.workdir)]
        if self.args.base_url:
            argv += ["--base-url", self.args.base_url]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, timeout=60)
        return json.loads(proc.stdout)["setup_s"]

    def measure(self) -> dict:
        walls, cpus, setups = self.run_passes(self.args.seconds, SETUP_PROBES)
        self.samples = {"passes": len(walls), "setups": len(setups)}
        questions = len(self.expected["questions"]) * len(walls)
        return {
            "questions_per_s": questions / sum(walls),
            "setup_s": statistics.median(setups),
            "cpu_ms_per_question": 1000 * sum(cpus) / questions,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def measure_traced(self) -> dict:
        n = len(self.expected["questions"])
        stats0 = stub_stats(self.args.stats_url)
        plain, _, _ = self.run_passes(self.args.seconds / 2)
        stats1 = stub_stats(self.args.stats_url)
        plain_passes = len(plain)

        self.tracer = tracer = install_tracer()
        if self.workload == "recite_inproc":
            tracer.wrap(type(self.backend), "generate", "inproc.generate")
        tracer.enabled = True
        if self.workload != "analyze_1k":
            # Set up again under the tracer, so load costs appear as spans.
            self.setup = Setup(self.workload, self.workdir, self.args.base_url)
            if self.workload == "recite_replay":
                self.backend = self.setup.cache
        traced, _, _ = self.run_passes(self.args.seconds / 2)
        traced_passes = len(traced)
        stats2 = stub_stats(self.args.stats_url)
        tracer.enabled = False
        tracer.write(Path(self.args.spans))
        analyze = self.workload == "analyze_1k"

        http = {k: stats2.get(k, 0) - stats1.get(k, 0) for k in stats2}
        latency_s = gen.WORKLOADS[self.workload]["latency_ms"] / 1000
        metrics = layer_metrics(
            tracer.spans,
            tracer.counts,
            passes=0 if analyze else traced_passes,
            analyses=traced_passes if analyze else 0,
            questions=n,
            http=http,
            latency_s=latency_s,
        )
        if self.workload == "recite_http":
            plain_requests = stats1.get("requests", 0) - stats0.get("requests", 0)
            calls_per_s = plain_requests / sum(plain)
            metrics["cap_efficiency"] = calls_per_s / (gen.PATHS_IN_FLIGHT / latency_s)
            metrics["cache.file_bytes"] = self.cache_path.stat().st_size
        elif self.workload == "recite_replay":
            metrics["cache.file_bytes"] = (self.workdir / "warm_cache.jsonl").stat().st_size
        metrics["failed_path_frac"] = self.failed_paths / self.paths_done if self.paths_done else 0.0
        metrics["failed_question_frac"] = self.failed_questions / self.questions_done
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_ms_per_question"] = 1000 * overhead / n
        metrics["trace.overhead_frac"] = overhead / statistics.median(plain)
        self.samples = {"untraced_passes": plain_passes, "traced_passes": traced_passes}
        return metrics


def install_tracer() -> Tracer:
    """Wrap the product's public functions where their callers look them up."""
    from reciteqa import backend, cli, datasets, evalkit, pipeline

    t = Tracer()
    t.wrap_generator(pipeline, "run_dataset", "pipeline.run_dataset")
    size = lambda prompt: len(prompt.encode("utf-8"))  # noqa: E731
    t.wrap(pipeline, "build_recitation_prompt", "prompting.build_recitation_prompt", info=size)
    t.wrap(pipeline, "build_qa_prompt", "prompting.build_qa_prompt", info=size)
    t.wrap(pipeline, "plurality_vote", "evalkit.plurality_vote")
    t.wrap(pipeline, "serialize", "core.serialize")
    t.wrap(pipeline, "deserialize", "core.deserialize")
    t.wrap(backend.Backend, "generate_batch", "backend.generate_batch", ambient=True)
    t.wrap(backend.HttpBackend, "generate", "http.generate")
    t.wrap(backend.CachingBackend, "generate", "cache.generate", info=lambda r: r.cache_hit)
    t.wrap(backend.CachingBackend, "__init__", "cache.load")
    t.wrap(datasets, "load_questions", "datasets.load_questions")
    t.wrap(cli, "load_questions", "datasets.load_questions")
    t.wrap(cli, "cmd_analyze", "cli.analyze")
    t.wrap(cli, "load_run_records", "pipeline.load_run_records")
    t.wrap(cli, "aggregate_report", "evalkit.aggregate_report")
    t.wrap(cli, "path_subsample_curve", "evalkit.path_subsample_curve")
    t.count(evalkit, "normalize", "evalkit.normalize")
    t.count(evalkit, "plurality_vote", "evalkit.plurality_vote")
    return t


def layer_metrics(spans, counts, *, passes, analyses, questions, http, latency_s) -> dict:
    """Per-layer figures from the traced phase. Counts are per pass over the
    question list, or per analyze run on analyze_1k; times are medians or
    per question."""
    by_parent = children(spans)
    named: dict[str, list] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)

    def durations(name):
        return [s.duration for s in named.get(name, [])]

    per_pass = (lambda x: x / passes) if passes else (lambda x: 0.0)
    traced_questions = passes * questions
    per_question = (lambda x: x / traced_questions) if traced_questions else (lambda x: 0.0)
    m = {name: 0.0 for name in PER_LAYER}
    m["pipeline.questions_traced"] = traced_questions

    runs = named.get("pipeline.run_dataset", [])
    run_time = sum(r.duration for r in runs)
    m["pipeline.self_ms_per_question"] = per_question(1000 * sum(self_time(r, by_parent) for r in runs))
    gaps = []
    for run in runs:
        previous = run.start
        for emitted in run.info or []:
            gaps.append(emitted - previous)
            previous = emitted
    m["pipeline.question_ms_p50"] = 1000 * percentile(gaps, 50)
    m["pipeline.question_ms_p99"] = 1000 * percentile(gaps, 99)

    prompts = named.get("prompting.build_recitation_prompt", []) + named.get(
        "prompting.build_qa_prompt", []
    )
    busy = sum(p.duration for p in prompts)
    m["prompting.calls"] = per_pass(len(prompts))
    m["prompting.us_per_call"] = 1e6 * busy / len(prompts) if prompts else 0.0
    m["prompting.busy_ms_per_question"] = per_question(1000 * busy)
    m["prompting.bytes_per_question"] = per_question(sum(p.info or 0 for p in prompts))

    batches = named.get("backend.generate_batch", [])
    requests, waits, batch_self = [], [], []
    for batch in batches:
        kids = by_parent.get(batch.id, [])
        requests.extend(kids)
        waits.extend(k.start - batch.start for k in kids)
        batch_self.append(batch.duration - covered([(k.start, k.end) for k in kids]))
    m["backend.generate_batch.calls"] = per_pass(len(batches))
    m["backend.generate_batch.self_us_per_batch"] = (
        1e6 * statistics.mean(batch_self) if batch_self else 0.0
    )
    m["backend.dispatch_wait_ms_p50"] = 1000 * percentile(waits, 50)
    m["backend.dispatch_wait_ms_p99"] = 1000 * percentile(waits, 99)
    if run_time:
        m["backend.in_flight_mean"] = (
            sum(r.duration for r in requests) / run_time / gen.PATHS_IN_FLIGHT
        )
    m["backend.generate.calls"] = per_pass(len(requests))
    m["backend.generate.ms_p50"] = 1000 * percentile([r.duration for r in requests], 50)
    m["backend.generate.ms_p99"] = 1000 * percentile([r.duration for r in requests], 99)

    http_calls = named.get("http.generate", [])
    if http.get("requests"):
        m["http.requests"] = per_pass(http["requests"])
        m["http.connections"] = per_pass(http["connections"])
        m["http.requests_per_connection"] = http["requests"] / max(1, http["connections"])
        m["http.bytes_sent_per_question"] = per_question(http["bytes_received"])
        m["http.bytes_received_per_question"] = per_question(http["bytes_sent"])
        m["http.malformed"] = per_pass(http["malformed"])
        m["http.retries"] = per_pass(http["requests"] - len(http_calls))
        m["http.overhead_ms_p50"] = 1000 * (
            percentile([c.duration for c in http_calls], 50) - latency_s
        )

    cached = named.get("cache.generate", [])
    hits = [c for c in cached if c.info is True]
    misses = [c for c in cached if c.info is not True]
    m["cache.hits"] = per_pass(len(hits))
    m["cache.misses"] = per_pass(len(misses))
    m["cache.hit_ratio"] = len(hits) / len(cached) if cached else 0.0
    m["cache.hit_us"] = 1e6 * percentile([h.duration for h in hits], 50)
    m["cache.miss_overhead_us"] = 1e6 * percentile(
        [s.duration - sum(k.duration for k in by_parent.get(s.id, [])) for s in misses], 50
    )
    m["cache.load_s"] = percentile(durations("cache.load"), 50)

    if analyses:
        m["evalkit.normalize.calls"] = counts.get("evalkit.normalize", 0) / analyses
        m["evalkit.plurality_vote.calls"] = counts.get("evalkit.plurality_vote", 0) / analyses
    m["evalkit.aggregate_report.ms"] = 1000 * percentile(durations("evalkit.aggregate_report"), 50)
    m["evalkit.path_subsample_curve.ms"] = 1000 * percentile(
        durations("evalkit.path_subsample_curve"), 50
    )
    # Serialize also renders the exemplars for the run's fingerprint; that
    # share is charged to the records too.
    serialized = durations("core.serialize")
    m["core.serialize.calls"] = per_pass(len(serialized))
    m["core.serialize.us_per_record"] = per_question(1e6 * sum(serialized))
    parsed = durations("core.deserialize")
    m["core.deserialize.calls"] = len(parsed) / analyses if analyses else 0.0
    m["core.deserialize.us_per_record"] = 1e6 * statistics.mean(parsed) if parsed else 0.0
    m["datasets.load_questions.ms"] = 1000 * percentile(durations("datasets.load_questions"), 50)
    m["cli.analyze.self_ms"] = 1000 * percentile(
        [self_time(a, by_parent) for a in named.get("cli.analyze", [])], 50
    )
    return m


def cmd_probe(args) -> int:
    started = time.perf_counter()
    import_product()
    Setup(args.workload, Path(args.workdir), args.base_url)
    print(json.dumps({"setup_s": time.perf_counter() - started}))
    return 0


def cmd_warm(args) -> int:
    """One pass through the stub with a cache; every request must land."""
    import_product()
    from reciteqa import pipeline

    workdir = Path(args.workdir)
    setup = Setup("recite_replay", workdir, args.base_url)
    records = list(
        pipeline.run_dataset(
            setup.questions,
            setup.cfg,
            setup.exemplars,
            setup.cache,
            max_questions_in_flight=gen.QUESTIONS_IN_FLIGHT,
            max_paths_in_flight=gen.PATHS_IN_FLIGHT,
        )
    )
    failed = sum(p.failed for r in records for p in r.paths)
    if failed:
        print(f"warm-up pass failed on {failed} paths", file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    import_product()
    runner = Runner(args)
    if args.trace:
        metrics = runner.measure_traced()
    else:
        metrics = runner.measure()
    stats = stub_stats(args.stats_url)
    runner.check_totals(stats)
    result = {
        "correct": not runner.errors,
        "errors": runner.errors,
        "attempted": runner.questions_done,
        "failed": runner.failed_questions,
        "passes": runner.passes,
        "stub": stats,
        "samples": runner.samples,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload run")
    parser.add_argument("mode", choices=("probe", "warm", "run"))
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--base-url")
    parser.add_argument("--stats-url")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--cpus", help="comma-separated CPUs; pass i runs on the i-th, cycling")
    args = parser.parse_args(argv)
    return {"probe": cmd_probe, "warm": cmd_warm, "run": cmd_run}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
