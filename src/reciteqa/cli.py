"""Command-line entry point.

Subcommands: run, analyze, build-corpus, gen-questions, index (build/query),
seed-sweep. Exit codes: 0 completed, 1 config error, 2 fatal backend error,
3 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Sequence

from . import hintcorpus, retrieval
from .backend import (
    DEFAULT_AUTH_ENV, DEFAULT_TIMEOUT_S, Backend, BackendError, CachingBackend, HttpBackend,
    ScriptedBackend, check_base_url, is_header_text,
)
from .core import (
    RECORD_FIELDS, REQUIRED, Dataset, SamplingParams, Scheme, Strategy, canonical_json,
    check_fields, json_object, params_from_dict, params_to_dict, read_text, write_atomic,
)
from .datasets import ADAPTERS, DataError, default_shots, load_questions
from .evalkit import (
    DEFAULT_PROFILE,
    EvalError,
    EvalReport,
    NormProfile,
    ScoredRecord,
    aggregate_report,
    format_category_table,
    format_quadrant_table,
    path_subsample_curve,
    report_to_dict,
)
from .pipeline import (
    SchemeConfig,
    check_exemplar_prompts,
    config_fingerprint,
    default_answer_params,
    default_recitation_params,
    load_run_records,
    run_dataset,
)
from .prompting import (
    DEFAULT_DIALECT,
    UL2_DIALECT,
    HintError,
    PromptDialect,
    PromptError,
    PromptSet,
    load_prompt_set,
    sample_exemplars,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BACKEND = 2
EXIT_DATA = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Run configuration


DIALECTS = {dialect.name.value: dialect for dialect in (DEFAULT_DIALECT, UL2_DIALECT)}

# Config keys that become SchemeConfig fields of the same name. An absent or
# null one takes SchemeConfig's default; shots defaults by dataset adapter.
SCHEME_FIELDS = {
    key: (int, None)
    for key in ("n_paths", "shots", "exemplar_seed", "n_hints", "recitations_per_hop")
}
# NormProfile flags of the same name.
NORM_FLAG_FIELDS = {
    key: (bool, True)
    for key in ("lowercase", "strip_articles", "strip_punct", "collapse_whitespace")
}
NORMALIZATION_FIELDS = {
    **NORM_FLAG_FIELDS,
    "overrides": ({dataset.value: (NORM_FLAG_FIELDS, None) for dataset in Dataset}, {}),
}
BACKEND_FIELDS = {
    "scripted": {"kind": (str, REQUIRED), "script": (str, REQUIRED)},
    "http": {
        "kind": (str, REQUIRED), "base_url": (str, REQUIRED), "model": (str, REQUIRED),
        "auth_env": (str, DEFAULT_AUTH_ENV), "timeout_s": ((int, float), DEFAULT_TIMEOUT_S),
    },
}
RUN_CONFIG_FIELDS = {
    "dataset": ({"path": (str, REQUIRED), "adapter": (str, REQUIRED, ADAPTERS)}, REQUIRED),
    "scheme": (str, REQUIRED, [scheme.value for scheme in Scheme]),
    "prompt_set": (str, REQUIRED),
    "backend": (dict, REQUIRED),
    "run_dir": (str, REQUIRED),
    "dialect": (str, DEFAULT_DIALECT.name.value, DIALECTS),
    "limit": (int, None),
    **SCHEME_FIELDS,
    "recitation_sampling": (dict, None),
    "answer_sampling": (dict, None),
    "normalization": (NORMALIZATION_FIELDS, None),
    "max_questions_in_flight": (int, 1),
    "max_paths_in_flight": (int, 4),
    "cache": (str, None),
    "resume": (bool, False),
}
# The run.json fields analyze reads, checked as in a run config.
RUN_JSON_FIELDS = {key: RUN_CONFIG_FIELDS[key] for key in ("dataset", "normalization")}


@dataclass
class RunConfig:
    dataset_path: Path
    adapter: str
    scheme_cfg: SchemeConfig
    prompt_set: Path
    backend: dict
    run_dir: Path
    dialect: PromptDialect
    limit: int | None
    normalization: dict | None
    profile: NormProfile
    max_questions_in_flight: int
    max_paths_in_flight: int
    cache: Path | None
    resume: bool


def _params_from_config(entry: dict | None, default: SamplingParams, name: str) -> SamplingParams:
    """Parse a sampling entry merged over the default's fields, checked as
    a sampling_params record; a greedy entry inherits no k or temperature."""
    if entry is None:
        return default
    inherited = params_to_dict(default)
    if entry.get("strategy") == Strategy.GREEDY.value:
        inherited["k"] = inherited["temperature"] = None
    fields = RECORD_FIELDS["sampling_params"]
    return params_from_dict(check_fields({**inherited, **entry}, fields, name, ConfigError))


def _profile(entry: dict | None) -> NormProfile:
    """The profile of a checked normalization entry; null is the default profile."""
    if entry is None:
        return DEFAULT_PROFILE
    overrides = {
        dataset: NormProfile(**flags) for dataset, flags in entry["overrides"].items() if flags
    }
    return NormProfile(**{**entry, "overrides": overrides})


def _backend_from_config(entry: dict, resolve, name: str) -> dict:
    """Check a backend entry; returns it with a script path resolved."""
    kind = entry.get("kind")
    if kind not in ("scripted", "http"):
        raise ConfigError(f"{name}: kind must be scripted or http, got {kind!r}")
    backend = check_fields(entry, BACKEND_FIELDS[kind], name, ConfigError)
    if kind == "scripted":
        script_path = resolve(backend["script"])
        if not script_path.is_file():
            raise ConfigError(f"{name}: script file {script_path} does not exist")
        return {**backend, "script": str(script_path)}
    timeout_s = backend["timeout_s"]
    if not 0 < timeout_s < math.inf:
        raise ConfigError(f"{name}: timeout_s must be a positive number, got {timeout_s!r}")
    if backend["auth_env"] == "":
        raise ConfigError(f"{name}: auth_env must name an environment variable, got ''")
    try:
        check_base_url(backend["base_url"])
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    # The token is checked here, once, and never echoed: HttpBackend
    # would refuse it on the first request, after the run began.
    token = os.environ.get(backend["auth_env"])
    if token and not is_header_text(token):
        raise ConfigError(
            f"{name}: the token in ${backend['auth_env']} holds CR, LF or a character outside "
            "Latin-1, so it cannot be sent as a header"
        )
    return backend


def load_run_config(path: str | Path, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Read, override and validate a run config; every problem raises ConfigError."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    raw = json_object(read_text(path, ConfigError), str(path), ConfigError)
    base = path.parent

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    if overrides is not None:
        flags = {"limit": "limit", "paths": "n_paths", "shots": "shots", "seed": "exemplar_seed"}
        for flag, key in flags.items():
            if getattr(overrides, flag, None) is not None:
                raw[key] = getattr(overrides, flag)
        # --scripted and --run-dir name paths relative to the working directory.
        if getattr(overrides, "scripted", None):
            raw["backend"] = {"kind": "scripted", "script": os.path.abspath(overrides.scripted)}
        if getattr(overrides, "run_dir", None):
            raw["run_dir"] = os.path.abspath(overrides.run_dir)
        if getattr(overrides, "resume", False):
            raw["resume"] = True
    fields = check_fields(raw, RUN_CONFIG_FIELDS, str(path), ConfigError)
    dataset = fields["dataset"]
    scheme_fields = {key: fields[key] for key in SCHEME_FIELDS if fields[key] is not None}
    scheme_fields.setdefault("shots", default_shots(dataset["adapter"]))
    scheme_cfg = SchemeConfig(
        scheme=Scheme(fields["scheme"]),
        recitation_params=_params_from_config(
            fields["recitation_sampling"],
            default_recitation_params(),
            f"{path}: recitation_sampling",
        ),
        answer_params=_params_from_config(
            fields["answer_sampling"], default_answer_params(), f"{path}: answer_sampling"
        ),
        **scheme_fields,
    )
    cache = fields["cache"]
    if cache == "":
        raise ConfigError(f"{path}: cache must be a non-empty string or null, got ''")
    cfg = RunConfig(
        dataset_path=resolve(dataset["path"]),
        adapter=dataset["adapter"],
        scheme_cfg=scheme_cfg,
        prompt_set=resolve(fields["prompt_set"]),
        backend=_backend_from_config(fields["backend"], resolve, f"{path}: backend"),
        run_dir=resolve(fields["run_dir"]),
        dialect=DIALECTS[fields["dialect"]],
        limit=fields["limit"],
        # run.json records the entry as written.
        normalization=raw.get("normalization"),
        profile=_profile(fields["normalization"]),
        max_questions_in_flight=fields["max_questions_in_flight"],
        max_paths_in_flight=fields["max_paths_in_flight"],
        cache=None if cache is None else resolve(cache),
        resume=fields["resume"],
    )
    issues = scheme_cfg.validate()
    if issues:
        raise ConfigError(f"{path}: invalid scheme configuration: {'; '.join(issues)}")
    if cfg.max_questions_in_flight < 1 or cfg.max_paths_in_flight < 1:
        raise ConfigError(f"{path}: in-flight limits must be >= 1")
    if cfg.limit is not None and cfg.limit < 1:
        raise ConfigError(f"{path}: limit must be >= 1, got {cfg.limit}")
    if not cfg.dataset_path.is_file():
        raise ConfigError(f"{path}: dataset file {cfg.dataset_path} does not exist")
    if not cfg.prompt_set.is_dir():
        raise ConfigError(f"{path}: prompt set {cfg.prompt_set} does not exist")
    # The run creates run_dir, and every directory above it, before its
    # first cache append.
    if cfg.cache is not None and (
        cfg.cache.is_dir()
        or not (
            cfg.cache.parent.is_dir()
            or cfg.run_dir.resolve().is_relative_to(cfg.cache.parent.resolve())
        )
    ):
        raise ConfigError(
            f"{path}: cache {cfg.cache} is not a file in a directory that exists or holds run_dir"
        )
    return cfg


def _build_backend(cfg: RunConfig) -> tuple[Backend, bool]:
    """Returns (backend, deterministic) where deterministic marks scripted
    backends, whose runs must be byte-reproducible."""
    if cfg.backend["kind"] == "scripted":
        backend: Backend = ScriptedBackend.from_file(cfg.backend["script"])
        deterministic = True
    else:
        # The entry's other keys are HttpBackend parameters of the same name.
        backend = HttpBackend(**{k: v for k, v in cfg.backend.items() if k != "kind"})
        deterministic = False
    if cfg.cache is not None:
        backend = CachingBackend(backend, cfg.cache)
    return backend, deterministic


def _pick_exemplars(prompt_set: PromptSet, scheme_cfg: SchemeConfig, dialect: PromptDialect):
    """Sample the run's exemplars and render the scheme's few-shot prompts
    once; an exemplar that breaks the prompt grammar is a config error."""
    scheme = scheme_cfg.scheme
    pool = prompt_set.exemplars
    if scheme is Scheme.CHAIN_OF_THOUGHT:
        pool = tuple(e for e in pool if e.rationale is not None)
    elif scheme is Scheme.MULTI_HOP_RECITE:
        # A multi-hop prompt renders exactly recitations_per_hop per exemplar.
        pool = tuple(e for e in pool if len(e.recitations) == scheme_cfg.recitations_per_hop)
    elif scheme is not Scheme.DIRECT:
        pool = tuple(e for e in pool if e.recitations)
    if len(pool) < scheme_cfg.shots:
        raise ConfigError(
            f"prompt set offers {len(pool)} usable exemplars for scheme "
            f"{scheme.value}, need {scheme_cfg.shots}"
        )
    try:
        exemplars = sample_exemplars(pool, scheme_cfg.shots, scheme_cfg.exemplar_seed)
        check_exemplar_prompts(
            scheme_cfg, exemplars, hint_exemplars=prompt_set.hint_exemplars, dialect=dialect
        )
    except PromptError as exc:
        raise ConfigError(f"the sampled exemplars do not render: {exc}") from None
    return exemplars


def _scorer(questions: Sequence, profile: NormProfile) -> partial:
    """Scores a run record of the questions into its ScoredRecord view, so
    that the record, with its recitations, can be dropped at once."""
    return partial(ScoredRecord, by_id={q.id: q for q in questions}, profile=profile)


def _write_report(report: EvalReport, out_dir: Path) -> EvalReport:
    write_atomic(
        out_dir / "report.json", json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    )
    return report


def _output_dir(path: str | Path) -> Path:
    """Create an output directory, and those above it, before any work."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path} cannot be created: {exc.strerror}") from None
    return Path(path)


def _check_output_file(path: str) -> None:
    """Check before any work that a file output, which is replaced whole,
    is not a directory and sits in one that exists."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"output file {path} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"output file {path}: {path.parent} is not an existing directory")


def _execute_run(cfg: RunConfig) -> dict:
    questions = load_questions(cfg.dataset_path, cfg.adapter)
    prompt_set = load_prompt_set(cfg.prompt_set)
    scheme_cfg = replace(cfg.scheme_cfg, cot_anchor=prompt_set.cot_anchor)
    if scheme_cfg.scheme is Scheme.DIVERSIFIED_RECITE and not prompt_set.hint_exemplars:
        raise ConfigError(
            f"prompt set {cfg.prompt_set} has no hint_exemplars; the "
            "diversified_recite scheme needs them"
        )
    exemplars = _pick_exemplars(prompt_set, scheme_cfg, cfg.dialect)
    backend, deterministic = _build_backend(cfg)
    clock = (lambda: 0.0) if deterministic else time.monotonic

    _output_dir(cfg.run_dir)
    started = time.time()
    # Each record is scored into its view as the run yields it, then dropped.
    # Every question passed load_questions, so that cannot raise; an
    # interrupt that lands in it still closes the run and its queued questions.
    records = run_dataset(
        questions,
        scheme_cfg,
        exemplars,
        backend,
        hint_exemplars=prompt_set.hint_exemplars,
        dialect=cfg.dialect,
        profile=cfg.profile,
        resume=cfg.resume,
        run_dir=cfg.run_dir,
        limit=cfg.limit,
        max_questions_in_flight=cfg.max_questions_in_flight,
        max_paths_in_flight=cfg.max_paths_in_flight,
        clock=clock,
    )
    with closing(records):
        views = list(map(_scorer(questions, cfg.profile), records))
    finished = time.time()

    report = _write_report(aggregate_report(views), cfg.run_dir)

    def recorded(path: Path) -> str:
        # run.json names files relative to the run directory, so a run
        # directory moved together with its inputs still analyzes.
        return os.path.relpath(Path(path).resolve(), cfg.run_dir.resolve())

    backend_info = dict(cfg.backend)
    if "script" in backend_info:
        backend_info["script"] = recorded(backend_info["script"])
    run_info = {
        "dataset": {"path": recorded(cfg.dataset_path), "adapter": cfg.adapter},
        "scheme": scheme_cfg.scheme.value,
        "prompt_set": recorded(cfg.prompt_set),
        "dialect": cfg.dialect.name.value,
        "limit": cfg.limit,
        **{key: getattr(scheme_cfg, key) for key in SCHEME_FIELDS},
        "normalization": cfg.normalization,
        "backend": backend_info,
        # The fingerprint run_dataset stamps on every record it emits.
        "config_fingerprint": config_fingerprint(
            scheme_cfg, exemplars, cfg.dialect, prompt_set.hint_exemplars
        ),
    }
    write_atomic(cfg.run_dir / "run.json", canonical_json(run_info) + "\n")
    # Timings live apart from the byte-reproducible outputs.
    write_atomic(
        cfg.run_dir / "meta.json",
        json.dumps(
            {"started_at": started, "finished_at": finished, "wall_s": finished - started},
            indent=2,
        )
        + "\n",
    )
    return {
        "em": report.em,
        "f1": report.f1,
        "n": report.n_questions,
        "failed": report.n_failed_questions,
        "run_dir": str(cfg.run_dir),
    }


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    summary = _execute_run(cfg)
    print(
        f"EM={summary['em']:.4f} F1={summary['f1']:.4f} "
        f"n={summary['n']} failed={summary['failed']} -> {summary['run_dir']}"
    )
    return EXIT_OK


def _curve_counts(args: argparse.Namespace) -> list[int]:
    """The subsample path counts of `analyze`, after checking --paths and
    --trials."""
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    if not args.paths:
        return [1, 5, 10, 20]
    try:
        counts = [int(c) for c in args.paths.split(",")]
    except ValueError:
        counts = [0]
    if min(counts) < 1:
        raise ConfigError(f"--paths must list positive integers, got {args.paths!r}")
    return counts


def cmd_analyze(args: argparse.Namespace) -> int:
    counts = _curve_counts(args)
    run_dir = Path(args.run_dir)
    run_info_path = run_dir / "run.json"
    records_path = run_dir / "records.jsonl"
    if not run_info_path.is_file() or not records_path.is_file():
        raise DataError(f"{run_dir} is not a run directory (need run.json and records.jsonl)")
    run_info = json_object(
        read_text(run_info_path, DataError), str(run_info_path), DataError, RUN_JSON_FIELDS
    )
    dataset = run_info["dataset"]
    profile = _profile(run_info["normalization"])
    # A relative dataset path is relative to the run directory.
    questions = load_questions(run_dir / dataset["path"], dataset["adapter"])
    out_dir = _output_dir(args.out) if args.out else run_dir
    # Each record is scored into its view as it is read and then dropped,
    # so no recitation of the run stays in memory.
    views = list(load_run_records(records_path, _scorer(questions, profile)).values())
    if not views:
        raise DataError(f"{records_path} holds no records")

    report = _write_report(aggregate_report(views), out_dir)
    category_table = format_category_table(report)
    quadrant_table = format_quadrant_table(report)
    write_atomic(out_dir / "category_table.txt", category_table + "\n")
    write_atomic(out_dir / "quadrant_table.txt", quadrant_table + "\n")
    print(f"EM={report.em:.4f} F1={report.f1:.4f} n={report.n_questions}")
    print(category_table)
    print(quadrant_table)

    curve_path = out_dir / "curve.csv"
    try:
        curve = path_subsample_curve(views, counts, trials=args.trials, seed=args.curve_seed)
    except EvalError as exc:
        print(f"skipping subsample curve: {exc}", file=sys.stderr)
        # An earlier analysis's curve would sit beside this report as if it
        # were this one's.
        if curve_path.exists():
            curve_path.unlink()
            print(f"removed the earlier {curve_path}", file=sys.stderr)
        return EXIT_OK
    write_atomic(
        curve_path,
        "path_count,mean_em,std_em,mean_f1,std_f1\n"
        + "".join(
            f"{point.path_count},{point.mean_em:.6f},{point.std_em:.6f},"
            f"{point.mean_f1:.6f},{point.std_f1:.6f}\n"
            for point in curve
        ),
    )
    print(f"curve -> {curve_path}")
    return EXIT_OK


def cmd_build_corpus(args: argparse.Namespace) -> int:
    dump = Path(args.dump)
    if not dump.is_file():
        raise DataError(f"dump file {dump} does not exist")
    _output_dir(args.out)
    reader = (
        hintcorpus.read_heading_dump if args.format == "headings" else hintcorpus.read_dump
    )
    corpus = hintcorpus.build_corpus(reader(dump))
    corpus.save(args.out)
    print(f"{len(corpus)} passages -> {args.out}")
    return EXIT_OK


def cmd_gen_questions(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    _check_output_file(args.out)
    cfg = load_run_config(args.config, None)
    corpus = hintcorpus.Corpus.load(args.corpus)
    prompt_set = load_prompt_set(cfg.prompt_set)
    backend, _ = _build_backend(cfg)
    try:
        triples, dropped = hintcorpus.generate_synthetic_triples(
            corpus,
            args.n,
            prompt_set.question_gen,
            backend,
            seed=args.seed,
            max_in_flight=cfg.max_paths_in_flight,
            dialect=cfg.dialect,
        )
    except hintcorpus.CorpusError as exc:
        raise ConfigError(str(exc)) from None
    hintcorpus.export_triples(triples, args.out)
    print(f"{len(triples)} triples ({dropped} dropped) -> {args.out}")
    return EXIT_OK


def cmd_index_build(args: argparse.Namespace) -> int:
    try:
        params = retrieval.Bm25Params(k1=args.k1, b=args.b)
    except retrieval.RetrievalError as exc:
        raise ConfigError(str(exc)) from None
    _check_output_file(args.out)
    corpus = hintcorpus.Corpus.load(args.corpus)
    passages = [(p.hint, p.text) for p in corpus]
    index = retrieval.build_index(passages, params)
    retrieval.save_index(index, args.out)
    print(f"indexed {index.doc_count} passages -> {args.out}")
    return EXIT_OK


def cmd_index_query(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")
    try:
        index = retrieval.load_index(args.index)
    except (retrieval.RetrievalError, OSError) as exc:
        raise DataError(str(exc)) from None
    for doc_id, doc_score in retrieval.top_k(index, args.query, args.k):
        print(f"{doc_score:.6f}\t{doc_id}")
    return EXIT_OK


def cmd_seed_sweep(args: argparse.Namespace) -> int:
    seeds = args.seeds
    if len(set(seeds)) < max(len(seeds), 2):
        raise ConfigError(f"seed sweeps need at least 2 distinct seeds, got {seeds}")
    base_cfg = load_run_config(args.config, None)
    results = []
    for seed in seeds:
        cfg = replace(
            base_cfg,
            scheme_cfg=replace(base_cfg.scheme_cfg, exemplar_seed=seed),
            run_dir=base_cfg.run_dir / f"seed-{seed}",
        )
        summary = _execute_run(cfg)
        results.append({"seed": seed, "em": summary["em"], "f1": summary["f1"]})
        print(f"seed {seed}: EM={summary['em']:.4f} F1={summary['f1']:.4f}")
    ems = [r["em"] for r in results]
    f1s = [r["f1"] for r in results]
    summary = {
        "seeds": seeds,
        "per_seed": results,
        "mean_em": statistics.mean(ems),
        "std_em": statistics.stdev(ems),
        "mean_f1": statistics.mean(f1s),
        "std_f1": statistics.stdev(f1s),
    }
    write_atomic(base_cfg.run_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    print(
        f"mean EM={summary['mean_em']:.4f} (+/- {summary['std_em']:.4f}) "
        f"F1={summary['mean_f1']:.4f} (+/- {summary['std_f1']:.4f})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reciteqa",
        description="Recite-and-answer closed-book QA harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="answer a dataset and write a run directory")
    run.add_argument("--config", required=True, help="run config JSON file")
    run.add_argument("--scripted", help="override: scripted backend script file")
    run.add_argument("--limit", type=int, help="override: evaluate only the first N questions")
    run.add_argument("--paths", type=int, help="override: self-consistency path count")
    run.add_argument("--shots", type=int, help="override: exemplar count")
    run.add_argument("--seed", type=int, help="override: exemplar sampling seed")
    run.add_argument("--run-dir", help="override: output run directory")
    run.add_argument("--resume", action="store_true", help="skip completed questions")
    run.set_defaults(func=cmd_run)

    analyze = sub.add_parser("analyze", help="score a run directory and emit reports")
    analyze.add_argument("run_dir")
    analyze.add_argument("--out", help="output directory (default: the run directory)")
    analyze.add_argument("--paths", help="comma-separated subsample path counts (default 1,5,10,20)")
    analyze.add_argument("--trials", type=int, default=5)
    analyze.add_argument("--curve-seed", type=int, default=0)
    analyze.set_defaults(func=cmd_analyze)

    corpus = sub.add_parser("build-corpus", help="build a hinted passage corpus from a dump")
    corpus.add_argument("dump")
    corpus.add_argument("--out", required=True)
    corpus.add_argument(
        "--format", choices=("native", "headings"), default="native",
        help="native JSONL records or heading-marked plain text",
    )
    corpus.set_defaults(func=cmd_build_corpus)

    gen = sub.add_parser("gen-questions", help="generate synthetic question-hint-passage triples")
    gen.add_argument("--config", required=True, help="run config (supplies backend and prompt set)")
    gen.add_argument("--corpus", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_questions)

    index = sub.add_parser("index", help="BM25 index operations")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser("build")
    index_build.add_argument("--corpus", required=True)
    index_build.add_argument("--out", required=True)
    index_build.add_argument("--k1", type=float, default=0.9)
    index_build.add_argument("--b", type=float, default=0.4)
    index_build.set_defaults(func=cmd_index_build)
    index_query = index_sub.add_parser("query")
    index_query.add_argument("--index", required=True)
    index_query.add_argument("--query", required=True)
    index_query.add_argument("--k", type=int, default=1)
    index_query.set_defaults(func=cmd_index_query)

    sweep = sub.add_parser("seed-sweep", help="re-run with resampled exemplars per seed")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--seeds", type=int, nargs="+", required=True)
    sweep.set_defaults(func=cmd_seed_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PromptError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (DataError, EvalError, hintcorpus.CorpusError, HintError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
