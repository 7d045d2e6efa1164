from __future__ import annotations

import _thread
import gc
import hashlib
import json
import shutil
import socket
import ssl
import subprocess
import sys
import tempfile
import threading
import time
import warnings
import weakref
from concurrent.futures import Executor, ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reciteqa import backend as backend_module
from reciteqa.backend import (
    Backend,
    BackendError,
    CachingBackend,
    GenerationRequest,
    GenerationResult,
    HttpBackend,
    MalformedResponse,
    RateLimited,
    ScriptMiss,
    ScriptedBackend,
    Timeout,
    Unavailable,
    cache_key,
    prompt_key,
    truncate_at_stop,
)
from reciteqa.core import SamplingParams, Strategy, canonical_json, params_to_dict
from reciteqa.pipeline import default_recitation_params

from helpers import CountingBackend, count_sha256_input, within


def greedy(max_tokens=32, stops=()) -> SamplingParams:
    return SamplingParams(
        strategy=Strategy.GREEDY, seed=0, max_tokens=max_tokens, stop_sequences=stops
    )


def sampled(seed=0, stops=()) -> SamplingParams:
    return SamplingParams(
        strategy=Strategy.TOP_K, k=40, temperature=0.7, seed=seed,
        max_tokens=32, stop_sequences=stops,
    )


# ---------------------------------------------------------------------------
# truncation


def test_truncation_law():
    assert truncate_at_stop("Paris\n\nQuestion: next", ["\n\n"]) == "Paris"


def test_truncation_earliest_stop_wins():
    assert truncate_at_stop("a STOP b HALT c", ["HALT", "STOP"]) == "a "


def test_truncation_no_match_is_identity():
    assert truncate_at_stop("unchanged", ["\n\n"]) == "unchanged"


# ---------------------------------------------------------------------------
# scripted backend


def test_scripted_queue_in_order():
    backend = ScriptedBackend()
    backend.register("P", ["A", "B"])
    result = backend.generate(GenerationRequest("P", sampled(seed=0), n_samples=2))
    assert result.texts == ("A", "B")


def test_scripted_greedy_always_first():
    backend = ScriptedBackend()
    backend.register("P", ["A", "B"])
    for _ in range(3):
        assert backend.generate(GenerationRequest("P", greedy())).texts == ("A",)


def test_scripted_seed_shifts_start():
    backend = ScriptedBackend()
    backend.register("P", ["A", "B", "C"])
    assert backend.generate(GenerationRequest("P", sampled(seed=1))).texts == ("B",)
    assert backend.generate(GenerationRequest("P", sampled(seed=4))).texts == ("B",)


def test_scripted_deterministic():
    backend = ScriptedBackend()
    backend.register("P", ["A", "B"])
    request = GenerationRequest("P", sampled(seed=7), n_samples=2)
    assert backend.generate(request) == backend.generate(request)


def test_scripted_applies_stop_sequences():
    backend = ScriptedBackend()
    backend.register("P", ["Paris\n\nQuestion: next"])
    result = backend.generate(GenerationRequest("P", greedy(stops=("\n\n",))))
    assert result.texts == ("Paris",)


def test_scripted_miss_names_hash_and_excerpt():
    backend = ScriptedBackend()
    with pytest.raises(ScriptMiss) as err:
        backend.generate(GenerationRequest("mystery prompt", greedy()))
    assert prompt_key("mystery prompt") in str(err.value)
    assert "mystery prompt" in str(err.value)


def test_scripted_file_round_trip(tmp_path):
    script = {
        "entries": {prompt_key("P1"): ["one"]},
        "prompts": [{"prompt": "P2", "responses": ["two"]}],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    backend = ScriptedBackend.from_file(path)
    assert backend.generate(GenerationRequest("P1", greedy())).texts == ("one",)
    assert backend.generate(GenerationRequest("P2", greedy())).texts == ("two",)


def test_request_validation():
    backend = ScriptedBackend()
    backend.register("P", ["A"])
    with pytest.raises(ValueError):
        backend.generate(GenerationRequest("", greedy()))
    with pytest.raises(ValueError):
        backend.generate(GenerationRequest("P", greedy(), n_samples=2))
    bad = SamplingParams(strategy=Strategy.TOP_K, k=40, temperature=0.0, max_tokens=4)
    with pytest.raises(ValueError):
        backend.generate(GenerationRequest("P", bad))


# ---------------------------------------------------------------------------
# batch dispatch


@pytest.fixture
def pool():
    """The executor a test's batches run their lanes on; its 8 workers
    cover every lane count used here."""
    with ThreadPoolExecutor(max_workers=8) as executor:
        yield executor


class FlakyBackend(Backend):
    backend_id = "flaky"

    def __init__(self, fail_prompts=()):
        self.fail_prompts = set(fail_prompts)
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def generate(self, request: GenerationRequest) -> GenerationResult:
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            if request.prompt in self.fail_prompts:
                raise Timeout(f"scripted failure for {request.prompt}")
            return GenerationResult(texts=(f"echo:{request.prompt}",))
        finally:
            with self._lock:
                self.in_flight -= 1


def test_batch_preserves_order(pool):
    backend = FlakyBackend()
    requests = [GenerationRequest(f"p{i}", greedy()) for i in range(20)]
    results = backend.generate_batch(requests, max_in_flight=4, executor=pool)
    assert [r.texts[0] for r in results] == [f"echo:p{i}" for i in range(20)]
    assert backend.peak <= 4


def test_batch_isolates_failures(pool):
    backend = FlakyBackend(fail_prompts={"p3"})
    requests = [GenerationRequest(f"p{i}", greedy()) for i in range(5)]
    results = backend.generate_batch(requests, max_in_flight=2, executor=pool)
    assert isinstance(results[3], Timeout)
    assert [isinstance(r, GenerationResult) for r in results] == [
        True, True, True, False, True,
    ]


class CountingExecutor(ThreadPoolExecutor):
    """A thread pool that counts the tasks submitted to it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submits = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submits += 1
        return super().submit(fn, *args, **kwargs)


def test_batch_on_a_given_executor_runs_on_its_workers():
    backend = FlakyBackend(fail_prompts={"p3"})
    requests = [GenerationRequest(f"p{i}", greedy()) for i in range(12)]
    threads = set()
    original = backend.generate

    def generate(request):
        threads.add(threading.current_thread().name)
        time.sleep(0.002)  # let the lanes' requests overlap
        return original(request)

    backend.generate = generate
    callers = set()

    def batch():
        callers.add(threading.current_thread().name)
        return backend.generate_batch(requests, max_in_flight=lanes, executor=executor)

    # The calling thread is the first lane and the executor's workers run
    # the others: 3 lanes leave one of the 3 workers idle, 4 fill them.
    for lanes in (3, 4):
        with CountingExecutor(max_workers=3, thread_name_prefix="shared") as executor:
            first = within(30, batch)
            second = within(30, batch)
        for results in (first, second):
            assert isinstance(results[3], Timeout)
            assert [r.texts[0] for i, r in enumerate(results) if i != 3] == [
                f"echo:p{i}" for i in range(12) if i != 3
            ]
        # One task per helper lane, not one per request.
        assert executor.submits == 2 * (lanes - 1)
        assert backend.peak <= lanes
    assert threads and all(name.startswith("shared") or name in callers for name in threads)


class RaisingBackend(Backend):
    """Raises a RuntimeError, which is no BackendError, for prompt "a0" and
    holds every other request for a moment; records each request it starts
    and each it answers."""

    backend_id = "raising"

    def __init__(self):
        self.started = []
        self.answered = []

    def generate(self, request: GenerationRequest) -> GenerationResult:
        self.started.append(request.prompt)
        if request.prompt == "a0":
            raise RuntimeError("not a backend error")
        time.sleep(0.02)
        self.answered.append(request.prompt)
        return GenerationResult(texts=(f"echo:{request.prompt}",))


def test_batch_reraises_an_unexpected_error_once_every_lane_has_stopped():
    backend = RaisingBackend()
    first = [GenerationRequest(f"a{i}", greedy()) for i in range(12)]
    second = [GenerationRequest(f"b{i}", greedy()) for i in range(6)]
    with ThreadPoolExecutor(max_workers=3) as executor:
        run = dict(max_in_flight=3, executor=executor)

        def first_batch():
            with pytest.raises(RuntimeError, match="not a backend error"):
                backend.generate_batch(first, **run)
            return list(backend.started), list(backend.answered)

        started, answered = within(30, first_batch)
        results = within(30, lambda: backend.generate_batch(second, **run))
    # The other lanes stopped claiming, every request they had sent was
    # answered before the call returned, and none was sent after it.
    assert len(started) < len(first)
    assert sorted(answered) == sorted(p for p in started if p != "a0")
    assert [p for p in backend.started if p.startswith("a")] == started
    assert [r.texts[0] for r in results] == [f"echo:b{i}" for i in range(6)]


def test_batches_sharing_an_executor_answer_each_request_once_in_its_slot():
    # More lanes than workers and cores, four calling threads and a short
    # switch interval: a lost claim or a helper the caller stopped waiting
    # for would leave a slot empty or send a request twice.
    backend = FlakyBackend()
    calls = {}
    lock = threading.Lock()
    original = backend.generate

    def generate(request):
        with lock:
            calls[request.prompt] = calls.get(request.prompt, 0) + 1
        return original(request)

    backend.generate = generate
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as executor:

            def caller(c):
                for b in range(30):
                    requests = [GenerationRequest(f"c{c}b{b}r{i}", greedy()) for i in range(12)]
                    results = backend.generate_batch(requests, max_in_flight=4, executor=executor)
                    if [getattr(r, "texts", None) for r in results] != [
                        (f"echo:{r.prompt}",) for r in requests
                    ]:
                        wrong.append((c, b, results))

            def callers():
                threads = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                return [thread.is_alive() for thread in threads]

            wrong = []
            assert not any(within(60, callers))
    finally:
        sys.setswitchinterval(interval)
    assert not wrong, wrong[0]
    assert len(calls) == 4 * 30 * 12 and set(calls.values()) == {1}


class SlowBackend(Backend):
    """Holds every request for 50 ms and records when each one starts."""

    backend_id = "slow"

    def __init__(self):
        self.started = []

    def generate(self, request: GenerationRequest) -> GenerationResult:
        self.started.append(time.monotonic())
        time.sleep(0.05)
        return GenerationResult(texts=(f"echo:{request.prompt}",))


def test_batch_interrupted_on_the_main_thread_stops_its_other_lanes():
    # gen-questions sends its one batch from the main thread, where Ctrl-C
    # lands. The batch takes 1 s whole; the interrupt comes at 0.12 s.
    assert threading.current_thread() is threading.main_thread()
    backend = SlowBackend()
    requests = [GenerationRequest(f"p{i}", greedy()) for i in range(40)]
    interrupted = []

    def interrupt():
        interrupted.append(time.monotonic())
        _thread.interrupt_main()

    timer = threading.Timer(0.12, interrupt)
    with ThreadPoolExecutor(max_workers=1) as executor:
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                backend.generate_batch(requests, max_in_flight=2, executor=executor)
        finally:
            timer.join()
    # The main thread sees the interrupt once its own request returns; by
    # then the helper lane may have started one more, and then it stops.
    late = [t for t in backend.started if t > interrupted[0]]
    assert len(late) <= 1, (len(late), len(backend.started))


class ShutDownAfterOneSubmit(ThreadPoolExecutor):
    """Runs the first task submitted and refuses the rest, as an executor
    shut down between two submits does."""

    accepted = False

    def submit(self, fn, /, *args, **kwargs):
        if self.accepted:
            raise RuntimeError("cannot schedule new futures after shutdown")
        self.accepted = True
        return super().submit(fn, *args, **kwargs)


def test_a_refused_submit_stops_the_helpers_already_submitted():
    backend = SlowBackend()
    requests = [GenerationRequest(f"p{i}", greedy()) for i in range(20)]
    with ShutDownAfterOneSubmit(max_workers=2) as executor:
        with pytest.raises(RuntimeError, match="after shutdown"):
            within(30, lambda: backend.generate_batch(requests, max_in_flight=3, executor=executor))
        time.sleep(0.3)
        # The one helper finishes the request it had claimed and stops.
        assert len(backend.started) <= 1


def test_a_helper_still_queued_when_its_batch_returns_holds_no_request_or_result():
    # The pool's one worker is busy, so the batch's helper lane is still
    # queued when the calling thread has answered every request itself.
    backend = FlakyBackend()
    sent = []
    original = backend.generate

    def generate(request):
        sent.append(request.prompt)
        return original(request)

    backend.generate = generate
    release = threading.Event()
    refs = []

    def batch():
        requests = [GenerationRequest(f"p{i}", greedy()) for i in range(3)]
        refs.append(weakref.ref(requests[0]))
        return backend.generate_batch(requests, max_in_flight=2, executor=executor)

    with ThreadPoolExecutor(max_workers=1) as executor:
        blocker = executor.submit(release.wait, 30)
        try:
            results = within(30, batch)
            assert [r.texts[0] for r in results] == ["echo:p0", "echo:p1", "echo:p2"]
            refs.append(weakref.ref(results[0]))
            del results
            gc.collect()
            assert not blocker.done()
            assert [ref() for ref in refs] == [None, None]
        finally:
            release.set()
        assert blocker.result(30)
    assert sent == ["p0", "p1", "p2"]


def test_batch_empty(pool, tmp_path):
    assert FlakyBackend().generate_batch([], max_in_flight=3, executor=pool) == []
    cached = CachingBackend(FlakyBackend(), tmp_path / "cache.jsonl")
    assert cached.generate_batch([], max_in_flight=3, executor=RefusingExecutor()) == []


# ---------------------------------------------------------------------------
# cache keys and disk cache


def test_cache_key_stability():
    request = GenerationRequest("P", sampled(seed=1))
    assert cache_key("b", request) == cache_key("b", request)


def test_cache_key_pinned():
    # Keys index on-disk caches; a change here silently empties every cache.
    request = GenerationRequest(
        "Question: x\n\nRecitation:", default_recitation_params(seed=3), 1
    )
    assert cache_key("scripted", request) == (
        "60aae033cbce19701713a5131c1ae6b7fad2592b7a6c05f1b4adc3c9bb8ead6c"
    )


def test_cache_key_sensitive_to_seed_and_backend():
    a = GenerationRequest("P", sampled(seed=1))
    b = GenerationRequest("P", sampled(seed=2))
    assert cache_key("x", a) != cache_key("x", b)
    assert cache_key("x", a) != cache_key("y", a)


def test_caching_backend_hit(tmp_path):
    inner = ScriptedBackend()
    inner.register("P", ["A"])
    cached = CachingBackend(inner, tmp_path / "cache.jsonl")
    request = GenerationRequest("P", greedy())
    first = cached.generate(request)
    second = cached.generate(request)
    assert first.cache_hit is False
    assert second.cache_hit is True
    assert second.texts == first.texts


def test_cache_persists_across_instances(tmp_path):
    path = tmp_path / "cache.jsonl"
    inner = ScriptedBackend()
    inner.register("P", ["A"])
    CachingBackend(inner, path).generate(GenerationRequest("P", greedy()))
    # A fresh cache over an empty inner backend must answer from disk.
    revived = CachingBackend(ScriptedBackend(), path)
    result = revived.generate(GenerationRequest("P", greedy()))
    assert result.cache_hit is True
    assert result.texts == ("A",)


def test_cache_corrupt_line_degrades_to_miss(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("this is not json\n", encoding="utf-8")
    inner = ScriptedBackend()
    inner.register("P", ["A"])
    cached = CachingBackend(inner, path)
    result = cached.generate(GenerationRequest("P", greedy()))
    assert result.cache_hit is False
    assert result.texts == ("A",)


def test_cache_entry_holding_line_separators_hits_after_reload(tmp_path):
    # canonical JSON writes U+2028, U+2029 and U+0085 unescaped; they are
    # not line ends of the cache file.
    path = tmp_path / "cache.jsonl"
    inner = ScriptedBackend()
    inner.register("P\u2028prompt", ["one\u2028two\u2029three\x85four"])
    request = GenerationRequest("P\u2028prompt", greedy())
    CachingBackend(inner, path).generate(request)
    size = path.stat().st_size
    counting = CountingBackend(inner)
    result = CachingBackend(counting, path).generate(request)
    assert result.cache_hit is True
    assert result.texts == ("one\u2028two\u2029three\x85four",)
    assert counting.calls == 0
    assert path.stat().st_size == size


def test_cache_line_that_is_not_utf8_is_skipped_with_a_warning(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    inner = ScriptedBackend()
    inner.register("P", ["A"])
    inner.register("Q", ["B"])
    CachingBackend(inner, path).generate(GenerationRequest("P", greedy()))
    with path.open("ab") as handle:
        handle.write(b"\xff\xfe{}\n")
    CachingBackend(inner, path).generate(GenerationRequest("Q", greedy()))
    revived = CachingBackend(ScriptedBackend(), path)
    assert revived.generate(GenerationRequest("P", greedy())).texts == ("A",)
    assert revived.generate(GenerationRequest("Q", greedy())).texts == ("B",)
    assert f"skipping unreadable line {path}:2: " in caplog.text


def test_cache_first_write_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    request = GenerationRequest("P", greedy())
    key = cache_key("scripted", request)
    rows = [
        {"key": key, "texts": ["first"], "meta": {}},
        {"key": key, "texts": ["second"], "meta": {}},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    cached = CachingBackend(ScriptedBackend(), path)
    assert cached.generate(request).texts == ("first",)


def test_cache_torn_tail_does_not_swallow_next_entry(tmp_path):
    path = tmp_path / "cache.jsonl"
    inner = ScriptedBackend()
    inner.register("P", ["A"])
    inner.register("Q", ["B"])
    CachingBackend(inner, path).generate(GenerationRequest("P", greedy()))
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"key": "torn mid-wri')
    CachingBackend(inner, path).generate(GenerationRequest("Q", greedy()))
    revived = CachingBackend(ScriptedBackend(), path)
    assert revived.generate(GenerationRequest("P", greedy())).texts == ("A",)
    assert revived.generate(GenerationRequest("Q", greedy())).texts == ("B",)
    assert len(path.read_text(encoding="utf-8").splitlines()) == 2


# Characters whose JSON escaping differs: quotes, backslashes, control
# characters, and the separators canonical JSON writes unescaped.
TRICKY_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\x85\u2028\u2029é日\U0001f600 a'),
        st.characters(blacklist_categories=("Cs",)),
    ),
)


@settings(max_examples=200)
@given(
    backend_id=TRICKY_TEXT,
    prompt=TRICKY_TEXT.filter(bool),
    stops=st.lists(TRICKY_TEXT, max_size=3),
    seed=st.integers(0, 2**31 - 1),
    temperature=st.floats(0.01, 2.0),
    n_samples=st.integers(1, 4),
    greedy_decoding=st.booleans(),
)
def test_cache_key_is_the_hash_of_the_canonical_payload(
    backend_id, prompt, stops, seed, temperature, n_samples, greedy_decoding
):
    if greedy_decoding:
        params, n_samples = greedy(stops=tuple(stops)), 1
    else:
        params = SamplingParams(
            strategy=Strategy.TOP_K, k=40, temperature=temperature, seed=seed,
            max_tokens=32, stop_sequences=tuple(stops),
        )
    request = GenerationRequest(prompt, params, n_samples)
    payload = {
        "backend": backend_id,
        "prompt": prompt,
        "params": params_to_dict(params),
        "n_samples": n_samples,
    }
    assert cache_key(backend_id, request) == hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


def test_cache_key_tells_apart_equal_params_that_render_differently():
    whole = SamplingParams(strategy=Strategy.TOP_K, k=40, temperature=1, max_tokens=32)
    point_zero = SamplingParams(strategy=Strategy.TOP_K, k=40, temperature=1.0, max_tokens=32)
    assert whole == point_zero
    for params in (whole, point_zero, whole):
        payload = {"backend": "b", "prompt": "P", "params": params_to_dict(params), "n_samples": 1}
        assert cache_key("b", GenerationRequest("P", params)) == hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()


@pytest.mark.parametrize(
    "fields",
    [
        {"meta": [1]},
        {"meta": None},
        {"key": ["x"]},
        {"texts": "abc"},
        {"texts": []},
        {"texts": [1]},
    ],
    ids=["meta-list", "meta-null", "key-list", "texts-string", "texts-empty", "texts-not-strings"],
)
def test_cache_line_with_a_mistyped_field_is_skipped_with_a_warning(tmp_path, caplog, fields):
    path = tmp_path / "cache.jsonl"
    request = GenerationRequest("P", greedy())
    entry = {"key": cache_key("scripted", request), "texts": ["stale"], "meta": {}}
    path.write_text(json.dumps({**entry, **fields}) + "\n", encoding="utf-8")
    inner = ScriptedBackend()
    inner.register("P", ["A"])
    result = CachingBackend(inner, path).generate(request)
    assert result.cache_hit is False
    assert result.texts == ("A",)
    assert f"skipping unreadable line {path}:1: " in caplog.text


def test_cache_appends_through_one_flushed_handle(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    inner = ScriptedBackend()
    for prompt in "PQR":
        inner.register(prompt, [prompt.lower()])
    appends = []
    open_path = type(path).open

    def counting_open(self, mode="r", *args, **kwargs):
        if "a" in mode:
            appends.append(self)
        return open_path(self, mode, *args, **kwargs)

    monkeypatch.setattr(type(path), "open", counting_open)
    first = CachingBackend(inner, path)
    first.generate(GenerationRequest("P", greedy()))
    first.generate(GenerationRequest("Q", greedy()))
    assert appends == [path]
    # `first` stays open, as in a run that is killed: its entries are
    # already on disk for the next backend.
    counting = CountingBackend(ScriptedBackend())
    revived = CachingBackend(counting, path)
    for prompt in "PQ":
        result = revived.generate(GenerationRequest(prompt, greedy()))
        assert (result.texts, result.cache_hit) == ((prompt.lower(),), True)
    assert counting.calls == 0
    first.close()
    first.generate(GenerationRequest("R", greedy()))
    assert len(appends) == 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        del first
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len(path.read_text(encoding="utf-8").splitlines()) == 3


def stored_keys(path):
    """The keys of a cache file's entries, in file order."""
    return [json.loads(line)["key"] for line in path.read_bytes().split(b"\n") if line]


class RefusingExecutor(Executor):
    def submit(self, fn, /, *args, **kwargs):
        raise AssertionError("a task was submitted")


def test_cache_all_hit_batch_runs_on_the_calling_thread(tmp_path, pool):
    path = tmp_path / "cache.jsonl"
    inner = ScriptedBackend()
    inner.register("P", ["A", "B", "C"])
    inner.register("Q", ["D"])
    requests = [GenerationRequest("P", sampled(seed=i)) for i in range(3)]
    requests.append(GenerationRequest("Q", greedy()))
    warm = CachingBackend(inner, path).generate_batch(requests, max_in_flight=2, executor=pool)
    counting = CountingBackend(inner)
    cached = CachingBackend(counting, path)
    results = cached.generate_batch(requests, max_in_flight=2, executor=RefusingExecutor())
    assert [r.texts for r in results] == [r.texts for r in warm] == [
        ("A",), ("B",), ("C",), ("D",),
    ]
    assert all(r.cache_hit for r in results)
    assert counting.calls == 0
    with pytest.raises(ValueError, match="max_in_flight"):
        cached.generate_batch(requests, max_in_flight=0, executor=RefusingExecutor())


def test_cache_mixed_batch_keeps_positions_and_stores_each_miss_once(tmp_path, pool):
    path = tmp_path / "cache.jsonl"
    inner = FlakyBackend(fail_prompts={"p3"})
    requests = [GenerationRequest(f"p{i}", greedy()) for i in range(6)]
    CachingBackend(inner, path).generate_batch(requests[0::2], max_in_flight=2, executor=pool)
    counting = CountingBackend(inner)
    results = CachingBackend(counting, path).generate_batch(
        requests, max_in_flight=2, executor=pool
    )
    assert isinstance(results[3], Timeout)
    assert [(r.texts, r.cache_hit) for i, r in enumerate(results) if i != 3] == [
        ((f"echo:p{i}",), i % 2 == 0) for i in (0, 1, 2, 4, 5)
    ]
    assert sorted(r.prompt for r in counting.requests) == ["p1", "p3", "p5"]
    stored = stored_keys(path)
    assert sorted(stored) == sorted(cache_key("flaky", requests[i]) for i in (0, 1, 2, 4, 5))


def test_cache_concurrent_batches_sharing_misses_agree(tmp_path):
    inner = FlakyBackend()
    requests = [GenerationRequest(f"p{i % 5}", sampled(seed=i % 3)) for i in range(15)]
    cached = CachingBackend(inner, tmp_path / "cache.jsonl")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as batches, ThreadPoolExecutor(4) as lanes:
            run = lambda shift: cached.generate_batch(
                requests[shift:] + requests[:shift], max_in_flight=2, executor=lanes
            )
            outcomes = within(30, lambda: list(batches.map(run, range(6))))
    finally:
        sys.setswitchinterval(interval)
    for shift, results in enumerate(outcomes):
        assert [r.texts for r in results] == [
            (f"echo:{r.prompt}",) for r in requests[shift:] + requests[:shift]
        ]
    assert sorted(stored_keys(tmp_path / "cache.jsonl")) == sorted(
        {cache_key("flaky", r) for r in requests}
    )
    assert cached._miss_keys == {}


def test_cache_batch_escapes_a_shared_prompt_once_and_keys_each_request(
    tmp_path, monkeypatch, pool
):
    escaped = []
    escape = backend_module._escaped

    def counting_escape(text):
        escaped.append(text)
        return escape(text)

    monkeypatch.setattr(backend_module, "_escaped", counting_escape)
    path = tmp_path / "cache.jsonl"
    few_shot = "Recite: \"x\"\u2028\n\n"
    inner = ScriptedBackend()
    cached = CachingBackend(inner, path)
    asked = []

    def ask(question):
        prompt = few_shot + question
        inner.register(prompt, [f"{question}:r{i}" for i in range(5)])
        requests = [GenerationRequest(prompt, sampled(seed=i)) for i in range(5)]
        escaped.clear()
        results = cached.generate_batch(requests, max_in_flight=2, executor=pool)
        assert [r.texts for r in results] == [(f"{question}:r{i}",) for i in range(5)]
        asked.extend(requests)
        return list(escaped)

    # The first two questions leave each seed's key head with the prefix
    # every prompt shares, "Q: " after the few-shot block.
    ask("Q: one")
    ask("Q: two")
    # A later question's batch escapes only its one prompt's tail, once;
    # its misses do not compute their keys again.
    assert ask("Q: three") == ["three"]
    assert ask("Q: four") == ["four"]
    stored = stored_keys(path)
    monkeypatch.undo()
    assert sorted(stored) == sorted(cache_key("scripted", r) for r in asked)
    assert len(set(stored)) == len(asked)


def test_cache_batch_renders_no_head_again_for_shapes_already_keyed(
    tmp_path, monkeypatch, pool
):
    rendered = []
    render = backend_module.canonical_json

    def counting_render(obj):
        rendered.append(obj)
        return render(obj)

    monkeypatch.setattr(backend_module, "canonical_json", counting_render)
    # The heads are memoized module-wide; start from none.
    backend_module._render_key_head.cache_clear()
    cached = CachingBackend(FlakyBackend(), tmp_path / "cache.jsonl")
    shapes = [(greedy(), 1), (sampled(seed=1), 1), (sampled(seed=2), 1), (sampled(seed=2), 3)]

    def heads_rendered(prompts):
        rendered.clear()
        requests = [GenerationRequest(p, *shape) for p in prompts for shape in shapes]
        results = cached.generate_batch(requests, max_in_flight=2, executor=pool)
        assert [r.texts[0] for r in results] == [f"echo:{r.prompt}" for r in requests]
        return sum("backend" in obj for obj in rendered)

    assert heads_rendered(["Q: a\nA:", "Q: b\nA:"]) == len(shapes)
    assert heads_rendered(["Q: c\nA:", "Q: d\nA:"]) == 0
    monkeypatch.undo()
    assert sorted(stored_keys(tmp_path / "cache.jsonl")) == sorted(
        cache_key("flaky", GenerationRequest(f"Q: {q}\nA:", *shape))
        for q in "abcd"
        for shape in shapes
    )


def test_escaped_equals_json_dumps_at_every_ascii_code_point():
    # The ASCII-mode escape writes DEL as \u007f; json.dumps with
    # ensure_ascii=False writes it as is.
    for code in range(128):
        for text in (chr(code), f"a{chr(code)}b", "Q: " + chr(code) * 3):
            assert backend_module._escaped(text) == json.dumps(text, ensure_ascii=False).encode()


@settings(max_examples=300)
@given(
    st.one_of(
        st.text(alphabet=st.characters(max_codepoint=127)),
        st.text(alphabet=st.sampled_from("ab\"\x7f\n")),
        TRICKY_TEXT,
    )
)
@example("plain ascii")
@example("ascii \x7f then é")
@example("é日\U0001f600")
def test_escaped_equals_json_dumps(text):
    assert backend_module._escaped(text) == json.dumps(text, ensure_ascii=False).encode()


def test_cache_batch_looks_up_each_key_head_once(tmp_path, monkeypatch):
    looked_up = []
    key_head = backend_module._key_head

    def counting_key_head(*args):
        looked_up.append(args)
        return key_head(*args)

    monkeypatch.setattr(backend_module, "_key_head", counting_key_head)
    cached = CachingBackend(FlakyBackend(), tmp_path / "cache.jsonl")
    answer = greedy()
    # An answer batch shares one params object; a sampling batch does not.
    requests = [GenerationRequest(f"Q: {i}\nA:", answer) for i in range(6)]
    requests += [GenerationRequest("Q: x\nA:", sampled(seed=i)) for i in range(3)]
    requests += [GenerationRequest("Q: y\nA:", answer, 2)]
    keys = cached._keys(requests)
    monkeypatch.undo()
    assert keys == [cache_key("flaky", r) for r in requests]
    assert len(looked_up) == 1 + 3 + 1


@settings(max_examples=200, deadline=None)
@given(
    backend_id=st.sampled_from(["batch-keys-a", "batch-keys-b"]),
    prefix=TRICKY_TEXT,
    suffixes=st.lists(TRICKY_TEXT, min_size=1, max_size=4),
    picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8),
)
# Prompts that hold DEL, non-ASCII text or both, in the shared prefix or in
# a tail: DEL must not take the ASCII-mode escape.
@example("batch-keys-a", "Q: \x7f\n", ["a", "b\x7f"], [(0, 0), (1, 0), (0, 2)])
@example("batch-keys-a", "Q: ", ["caf\x7f", "café", "plain"], [(0, 0), (1, 0), (2, 1), (0, 3)])
@example("batch-keys-b", "Q: é", ["\x7f", "x"], [(0, 0), (1, 0)])
def test_cache_batch_keys_equal_cache_key(backend_id, prefix, suffixes, picks):
    shapes = [(greedy(), 1), (greedy(stops=("\n",)), 1), (sampled(seed=1), 1), (sampled(seed=1), 3)]
    prompts = [prefix + suffix for suffix in suffixes]
    requests = [
        GenerationRequest(prompts[p % len(prompts)], *shapes[s]) for p, s in picks
    ]
    keys = [cache_key(backend_id, r) for r in requests]
    inner = FlakyBackend()
    inner.backend_id = backend_id
    with tempfile.TemporaryDirectory() as tmp:
        # A cache holding every reference key, each answering with itself:
        # a batch key that differs would miss and submit a task.
        path = Path(tmp) / "cache.jsonl"
        path.write_text(
            "".join(canonical_json({"key": k, "texts": [k]}) + "\n" for k in set(keys)),
            encoding="utf-8",
        )
        cached = CachingBackend(inner, path)
        results = cached.generate_batch(requests, max_in_flight=2, executor=RefusingExecutor())
    assert [r.texts for r in results] == [(k,) for k in keys]
    assert all(r.cache_hit for r in results)


# Key shapes for the batch sequences below; the last two are equal params
# that render differently, so their keys differ.
SEQUENCE_SHAPES = [
    (greedy(), 1),
    (greedy(stops=("\n",)), 1),
    (sampled(seed=1), 1),
    (sampled(seed=1), 3),
    (SamplingParams(strategy=Strategy.TOP_K, k=40, temperature=1, seed=2, max_tokens=32), 1),
    (SamplingParams(strategy=Strategy.TOP_K, k=40, temperature=1.0, seed=2, max_tokens=32), 1),
]


def run_batches_against_reference_keys(backend_id, sequence, threads):
    """Run a sequence of batches through one CachingBackend whose cache
    holds every reference key, each answering with itself, from `threads`
    threads at once, each starting at another batch; every result must be
    its request's cache_key, so a batch key that differs fails."""
    inner = FlakyBackend()
    inner.backend_id = backend_id
    want = [[(cache_key(backend_id, r),) for r in batch] for batch in sequence]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        keys = {key for batch in want for (key,) in batch}
        path.write_text(
            "".join(canonical_json({"key": k, "texts": [k]}) + "\n" for k in keys),
            encoding="utf-8",
        )
        cached = CachingBackend(inner, path)

        def run(shift):
            order = list(range(shift, len(sequence))) + list(range(shift))
            return [
                (i, cached.generate_batch(sequence[i], 2, executor=RefusingExecutor()))
                for i in order
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(threads) as workers:
                shifts = [t % len(sequence) for t in range(threads)]
                runs = within(30, lambda: list(workers.map(run, shifts)))
        finally:
            sys.setswitchinterval(interval)
            cached.close()
    for outcomes in runs:
        for i, results in outcomes:
            assert [r.texts for r in results] == want[i]
            assert all(r.cache_hit for r in results)
    return cached


@pytest.mark.parametrize("threads", [1, 4])
@settings(max_examples=100, deadline=None)
@given(
    shared=TRICKY_TEXT,
    families=st.lists(TRICKY_TEXT, min_size=2, max_size=2),
    tails=st.lists(TRICKY_TEXT, min_size=1, max_size=4),
    batches=st.lists(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 5)),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_cache_keys_of_a_sequence_of_batches_equal_cache_key(
    threads, shared, families, tails, batches
):
    # Prompts share a block, then come from two families, so a head's
    # remembered prefix holds or shrinks as the batches alternate.
    sequence = [
        [
            GenerationRequest(shared + families[f] + tails[t % len(tails)], *SEQUENCE_SHAPES[s])
            for f, t, s in batch
        ]
        for batch in batches
    ]
    run_batches_against_reference_keys("sequence-keys", sequence, threads)


def test_cache_remembers_a_bounded_number_of_key_heads():
    few_shot = "Q: a\nA: b\n\n"
    sequence = [
        [GenerationRequest(few_shot + f"Q: {q}\nA:", sampled(seed=seed)) for q in "xy"]
        for seed in range(backend_module._MAX_PREFIX_HEADS + 10)
    ]
    cached = run_batches_against_reference_keys("bounded-heads", sequence + sequence[:3], 1)
    assert len(cached._prefixes) == backend_module._MAX_PREFIX_HEADS


def test_cache_keys_past_a_shrunk_prefix_feed_sha256_at_most_what_cache_key_does(
    tmp_path, monkeypatch, pool
):
    # Two prompt families under one key head shrink its remembered prefix to
    # the "Q" they share. A later batch of one family's prompts is then
    # hashed from there, one prompt at a time: each key feeds SHA-256 its
    # prompt past "Q", less than cache_key hashes, though more in all than
    # hashing the batch's shared "Q: few-shot" block once would.
    fed = count_sha256_input(monkeypatch)
    cached = CachingBackend(FlakyBackend(), tmp_path / "cache.jsonl")
    families = ["Q: few-shot\n\n", "Quite another block\n\n"]
    for block in families + families:
        cached.generate_batch([GenerationRequest(block + "Q: x", greedy())], 1, executor=pool)
    fed.clear()
    batch = [GenerationRequest(families[0] + f"Q: {q}", greedy()) for q in ("one", "two", "3")]
    results = cached.generate_batch(batch, 2, executor=pool)
    monkeypatch.undo()
    assert [r.texts for r in results] == [(f"echo:{r.prompt}",) for r in batch]
    whole = [len(_key_payload("flaky", r)) for r in batch]
    assert fed == [len(json.dumps(r.prompt[1:]).encode()) for r in batch]
    assert all(n < w for n, w in zip(fed, whole))
    assert sorted(stored_keys(tmp_path / "cache.jsonl")) == sorted(
        {cache_key("flaky", r) for r in batch}
        | {cache_key("flaky", GenerationRequest(b + "Q: x", greedy())) for b in families}
    )


def _key_payload(backend_id, request):
    """The bytes cache_key hashes."""
    return canonical_json(
        {
            "backend": backend_id,
            "n_samples": request.n_samples,
            "params": params_to_dict(request.params),
            "prompt": request.prompt,
        }
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# http backend (stub transport, no network)


def make_http(responses, sleeps):
    calls = {"n": 0}

    def transport(url, payload, headers, timeout_s):
        outcome = responses[min(calls["n"], len(responses) - 1)]
        calls["n"] += 1
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    backend = HttpBackend(
        base_url="http://fake.test/v1",
        model="m1",
        transport=transport,
        sleep=sleeps.append,
    )
    return backend, calls


def test_http_parses_choices():
    body = {"choices": [{"text": " hello\n\nextra"}], "model": "m1",
            "usage": {"total_tokens": 7}}
    backend, _ = make_http([(200, body)], [])
    result = backend.generate(
        GenerationRequest("P", greedy(stops=("\n\n",)))
    )
    assert result.texts == (" hello",)
    assert result.meta["total_tokens"] == "7"


def test_http_retries_rate_limit_then_succeeds():
    sleeps = []
    backend, calls = make_http(
        [(429, {}), (429, {}), (200, {"choices": [{"text": "ok"}]})], sleeps
    )
    result = backend.generate(GenerationRequest("P", greedy()))
    assert result.texts == ("ok",)
    assert calls["n"] == 3
    assert len(sleeps) == 2
    assert sleeps[1] > sleeps[0] >= 0.5  # exponential backoff


def test_http_gives_up_after_max_attempts():
    sleeps = []
    backend, calls = make_http([(429, {})], sleeps)
    with pytest.raises(RateLimited):
        backend.generate(GenerationRequest("P", greedy()))
    assert calls["n"] == 5


def test_http_timeout_is_retryable():
    sleeps = []
    backend, calls = make_http(
        [Timeout("slow"), (200, {"choices": [{"text": "ok"}]})], sleeps
    )
    assert backend.generate(GenerationRequest("P", greedy())).texts == ("ok",)
    assert calls["n"] == 2


@pytest.mark.parametrize("status", [502, 503, 504])
def test_http_unavailable_is_retryable(status):
    sleeps = []
    backend, calls = make_http(
        [(status, {}), (200, {"choices": [{"text": "ok"}]})], sleeps
    )
    assert backend.generate(GenerationRequest("P", greedy())).texts == ("ok",)
    assert calls["n"] == 2
    assert len(sleeps) == 1


def test_http_connection_error_is_retryable(local_server):
    server, base_url = local_server("drop", "reply")
    sleeps = []
    backend = HttpBackend(base_url=base_url, model="m1", sleep=sleeps.append)
    assert backend.generate(GenerationRequest("P", greedy())).texts == ("ok",)
    assert len(sleeps) == 1
    assert server.requests == 2


def test_http_gives_up_when_unavailable():
    backend, calls = make_http([(503, {})], [])
    with pytest.raises(Unavailable):
        backend.generate(GenerationRequest("P", greedy()))
    assert calls["n"] == 5


def test_http_malformed_is_fatal():
    backend, calls = make_http([(200, {"nope": True})], [])
    with pytest.raises(MalformedResponse):
        backend.generate(GenerationRequest("P", greedy()))
    assert calls["n"] == 1


def test_http_500_is_fatal():
    backend, calls = make_http([(500, {})], [])
    with pytest.raises(MalformedResponse):
        backend.generate(GenerationRequest("P", greedy()))
    assert calls["n"] == 1


def test_http_auth_header_from_env(monkeypatch):
    seen = {}

    def transport(url, payload, headers, timeout_s):
        seen.update(headers)
        return 200, {"choices": [{"text": "ok"}]}

    backend = HttpBackend(
        base_url="http://fake.test", model="m", auth_env="PROBE_TOKEN",
        transport=transport,
    )
    monkeypatch.setenv("PROBE_TOKEN", "sekrit")
    backend.generate(GenerationRequest("P", greedy()))
    assert seen["Authorization"] == "Bearer sekrit"


def test_http_payload_shape():
    seen = {}

    def transport(url, payload, headers, timeout_s):
        seen["url"] = url
        seen["payload"] = payload
        return 200, {"choices": [{"text": "a"}, {"text": "b"}]}

    backend = HttpBackend(base_url="http://fake.test/v1/", model="m", transport=transport)
    backend.generate(GenerationRequest("P", sampled(seed=3, stops=("\n",)), n_samples=2))
    assert seen["url"] == "http://fake.test/v1/completions"
    assert seen["payload"]["top_k"] == 40
    assert seen["payload"]["temperature"] == 0.7
    assert seen["payload"]["seed"] == 3
    assert seen["payload"]["n"] == 2
    assert seen["payload"]["stop"] == ["\n"]


# ---------------------------------------------------------------------------
# http backend over its default transport, against a localhost server


class LocalServer(ThreadingHTTPServer):
    """A localhost HTTP/1.1 server that answers POSTs with one "ok" choice
    and records each request as (request line, sorted headers, body).

    `actions[i]` says what to do with request i (the last one repeats):
    "reply"; "drop" (close without replying); "close-after" (reply, then
    close the socket without a Connection: close header); "connection-close"
    (reply with Connection: close); "silent" (reply nothing until released,
    then close).
    """

    daemon_threads = True

    def __init__(self, actions):
        self.actions = actions
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.seen = []
        self.finished = threading.Semaphore(0)
        self.release = threading.Event()
        super().__init__(("127.0.0.1", 0), _LocalHandler)


class _LocalHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def finish(self):
        super().finish()
        self.server.finished.release()

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        server = self.server
        with server.lock:
            action = server.actions[min(server.requests, len(server.actions) - 1)]
            server.requests += 1
            server.seen.append((self.requestline, sorted(self.headers.items()), body))
        if action in ("drop", "silent"):
            if action == "silent":
                server.release.wait(10)
            self.close_connection = True
            return
        data = json.dumps({"choices": [{"text": "ok"}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if action == "connection-close":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)
        if action == "close-after":
            self.close_connection = True


@pytest.fixture
def local_server():
    started = []

    def start(*actions):
        server = LocalServer(actions)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        thread.start()
        started.append((server, thread))
        return server, f"http://127.0.0.1:{server.server_address[1]}/v1"

    yield start
    for server, thread in started:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def ask(backend, n):
    return [backend.generate(GenerationRequest(f"P{i}", greedy())).texts for i in range(n)]


def test_http_keeps_one_connection_alive_for_sequential_requests(local_server):
    server, base_url = local_server("reply")
    sleeps = []
    backend = HttpBackend(base_url=base_url, model="m1", sleep=sleeps.append)
    assert ask(backend, 5) == [("ok",)] * 5
    assert (server.requests, server.connections, sleeps) == (5, 1, [])


def test_http_pool_under_concurrent_batches_loses_no_connection(local_server, pool):
    server, base_url = local_server("reply")
    sleeps = []
    backend = HttpBackend(base_url=base_url, model="m1", sleep=sleeps.append)
    requests = [GenerationRequest(f"P{i}", greedy()) for i in range(60)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = backend.generate_batch(requests, max_in_flight=8, executor=pool)
    finally:
        sys.setswitchinterval(interval)
    assert [r.texts for r in results] == [("ok",)] * 60
    # Every connection opened is back in the pool, and none beyond the cap.
    idle = [conn for conns in backend._transport._idle.values() for conn in conns]
    assert (server.requests, len(idle), sleeps) == (60, server.connections, [])
    assert 1 <= server.connections <= 8


def test_http_resends_once_when_a_reused_connection_was_closed(local_server):
    server, base_url = local_server("close-after")
    sleeps = []
    backend = HttpBackend(base_url=base_url, model="m1", sleep=sleeps.append)
    assert ask(backend, 5) == [("ok",)] * 5
    # Each request after the first meets the closed idle connection, then is
    # sent once on a fresh one: no backoff, and the server sees no duplicate.
    assert (server.requests, server.connections, sleeps) == (5, 5, [])


def test_http_does_not_pool_a_connection_close_reply(local_server):
    server, base_url = local_server("connection-close")
    sleeps = []
    backend = HttpBackend(base_url=base_url, model="m1", sleep=sleeps.append)
    assert ask(backend, 3) == [("ok",)] * 3
    assert (server.requests, server.connections, sleeps) == (3, 3, [])
    assert not any(backend._transport._idle.values())


def test_http_silent_server_times_out_and_retries(local_server):
    server, base_url = local_server("silent", "reply")
    sleeps = []
    backend = HttpBackend(base_url=base_url, model="m1", timeout_s=0.2, sleep=sleeps.append)
    assert ask(backend, 1) == [("ok",)]
    assert len(sleeps) == 1
    assert (server.requests, server.connections) == (2, 2)


def test_http_timeout_after_max_attempts_raises_timeout(local_server):
    server, base_url = local_server("silent")
    backend = HttpBackend(
        base_url=base_url, model="m1", timeout_s=0.1, max_attempts=2, sleep=lambda s: None
    )
    with pytest.raises(Timeout):
        backend.generate(GenerationRequest("P", greedy()))
    assert server.requests == 2


def test_http_refused_connection_is_unavailable():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    # Nothing listens on the port once the probe socket is closed.
    backend = HttpBackend(base_url=f"http://127.0.0.1:{port}", model="m1", max_attempts=1)
    with pytest.raises(Unavailable):
        backend.generate(GenerationRequest("P", greedy()))


def test_http_dropping_the_backend_closes_its_idle_connections(local_server):
    server, base_url = local_server("reply")
    backend = HttpBackend(base_url=base_url, model="m1")
    ask(backend, 2)
    gc.disable()
    try:
        del backend
        # Without a reference cycle the socket closes now, not at the next
        # collection, and the server's handler sees end of stream.
        assert server.finished.acquire(timeout=5)
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "base_url",
    [
        "ftp://h/v1", "localhost:8000", "http://", "http://h:x", "http://h/v 1",
        "http://h/v\u00e9", "http://\u00fc..de/v1",
    ],
)
def test_http_rejects_a_base_url_that_is_not_http(base_url):
    with pytest.raises(ValueError):
        HttpBackend(base_url=base_url, model="m1")


@pytest.mark.parametrize(
    "base_url",
    ["https://h/v1?x=1", "https://h/v1#frag", "https://h/v1?", "https://user:s3cret@h/v1"],
    ids=["query", "fragment", "empty-query", "userinfo"],
)
def test_http_rejects_a_base_url_its_completions_url_would_not_keep(base_url):
    # "/completions" would land in the query or be dropped with the
    # fragment, and user:password@ is never sent but would be written to
    # run.json and into every cache key.
    with pytest.raises(ValueError) as caught:
        HttpBackend(base_url=base_url, model="m1")
    assert "s3cret" not in str(caught.value)


@pytest.mark.parametrize("token", [None, "tok"])
def test_http_sends_the_request_http_client_sent(local_server, monkeypatch, token):
    if token is None:
        monkeypatch.delenv("RECITEQA_API_KEY", raising=False)
    else:
        monkeypatch.setenv("RECITEQA_API_KEY", token)
    server, base_url = local_server("reply")
    backend = HttpBackend(base_url=base_url, model="m1")
    request = GenerationRequest("Q: é \"ü\"\nA:", sampled(seed=3, stops=("\n",)))
    assert within(30, lambda: backend.generate(request)).texts == ("ok",)
    body = json.dumps(backend._payload(request)).encode("utf-8")
    headers = [
        ("Accept-Encoding", "identity"),
        ("Content-Length", str(len(body))),
        ("Content-Type", "application/json"),
        ("Host", f"127.0.0.1:{server.server_address[1]}"),
    ]
    if token is not None:
        headers.append(("Authorization", f"Bearer {token}"))
    assert server.seen == [("POST /v1/completions HTTP/1.1", sorted(headers), body)]


def test_http_sends_each_request_in_one_write(local_server, monkeypatch):
    server, base_url = local_server("reply")
    port = server.server_address[1]
    writes = []
    sendall = socket.socket.sendall

    def counting_sendall(sock, data, *args):
        if sock.getpeername()[1] == port:  # the client's end, not the server's
            writes.append(len(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
    backend = HttpBackend(base_url=base_url, model="m1")
    assert within(30, lambda: ask(backend, 3)) == [("ok",)] * 3
    assert len(writes) == 3


# ---------------------------------------------------------------------------
# http backend framing, against a localhost server that sends raw replies


OK_BODY = json.dumps({"choices": [{"text": "ok"}]}).encode("utf-8")


def raw_reply(*header_lines, body=OK_BODY, status_line=b"HTTP/1.1 200 OK"):
    return b"\r\n".join((status_line, *header_lines, b"", body))


def chunked(body, cut):
    """body as two chunks split at `cut`, with a chunk extension and a trailer."""
    pieces = (body[:cut], body[cut:])
    return b"".join(b"%x;ext=1\r\n%s\r\n" % (len(p), p) for p in pieces) + (
        b"0\r\nX-Trailer: 1\r\n\r\n"
    )


class RawServer:
    """A localhost TCP server that answers request i with the bytes
    `replies[i]` as given (the last one repeats) and, if close_after is
    set, closes the connection after each reply."""

    def __init__(self, replies, close_after=False):
        self.replies = replies
        self.close_after = close_after
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.stop = threading.Event()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.base_url = f"http://127.0.0.1:{self.listener.getsockname()[1]}/v1"
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            with self.lock:
                self.connections += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        conn.settimeout(10)
        with conn, conn.makefile("rb") as reader:
            while True:
                length = None
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                if length is None:
                    return
                reader.read(length)
                with self.lock:
                    reply = self.replies[min(self.requests, len(self.replies) - 1)]
                    self.requests += 1
                conn.sendall(reply)
                if self.close_after:
                    return

    def close(self):
        self.stop.set()
        self.thread.join(timeout=5)
        self.listener.close()


@pytest.fixture
def raw_server():
    started = []

    def start(*replies, close_after=False):
        started.append(RawServer(replies, close_after))
        return started[-1]

    yield start
    for server in started:
        server.close()


def idle_connections(backend):
    return [conn for conns in backend._transport._idle.values() for conn in conns]


def test_http_reads_a_chunked_reply_and_reuses_the_connection(raw_server):
    server = raw_server(raw_reply(b"Transfer-Encoding: chunked", body=chunked(OK_BODY, 5)))
    backend = HttpBackend(base_url=server.base_url, model="m1", max_attempts=1)
    assert within(30, lambda: ask(backend, 2)) == [("ok",)] * 2
    assert (server.requests, server.connections, len(idle_connections(backend))) == (2, 1, 1)


def test_http_reads_a_reply_with_no_length_to_the_end_and_does_not_pool_it(raw_server):
    reply = raw_reply(b"Content-Type: application/json", status_line=b"HTTP/1.0 200 OK")
    server = raw_server(reply, close_after=True)
    backend = HttpBackend(base_url=server.base_url, model="m1", max_attempts=1)
    assert within(30, lambda: ask(backend, 2)) == [("ok",)] * 2
    assert (server.requests, server.connections, idle_connections(backend)) == (2, 2, [])


def test_http_skips_an_interim_reply(raw_server):
    length = b"Content-Length: %d" % len(OK_BODY)
    server = raw_server(b"HTTP/1.1 100 Continue\r\n\r\n" + raw_reply(length))
    backend = HttpBackend(base_url=server.base_url, model="m1", max_attempts=1)
    assert within(30, lambda: ask(backend, 2)) == [("ok",)] * 2
    assert (server.requests, server.connections) == (2, 1)


@pytest.mark.parametrize(
    "status_line, connection, pooled",
    [
        (b"HTTP/1.1 200 OK", None, True),
        (b"HTTP/1.1 200 OK", b"Connection: close", False),
        (b"HTTP/1.0 200 OK", None, False),
        (b"HTTP/1.0 200 OK", b"Connection: keep-alive", True),
    ],
    ids=["1.1", "1.1-close", "1.0", "1.0-keep-alive"],
)
def test_http_keeps_a_connection_alive_by_the_http_client_rule(
    raw_server, status_line, connection, pooled
):
    lines = [b"Content-Length: %d" % len(OK_BODY)] + ([connection] if connection else [])
    server = raw_server(raw_reply(*lines, status_line=status_line))
    backend = HttpBackend(base_url=server.base_url, model="m1", max_attempts=1)
    assert within(30, lambda: ask(backend, 1)) == [("ok",)]
    assert len(idle_connections(backend)) == pooled


FRAMING_FAULTS = {
    "not-http": raw_reply(b"Content-Length: 2", body=b"{}", status_line=b"SPDY/3 200 OK"),
    "two-digit-status": raw_reply(b"Content-Length: 2", body=b"{}", status_line=b"HTTP/1.1 20 OK"),
    "non-numeric-length": raw_reply(b"Content-Length: abc"),
    "negative-length": raw_reply(b"Content-Length: -5"),
    "body-cut-short": raw_reply(b"Content-Length: %d" % (len(OK_BODY) + 10)),
    "huge-length": raw_reply(b"Content-Length: %d" % 10**15),
    "chunk-cut-short": raw_reply(b"Transfer-Encoding: chunked", body=b"ff\r\n" + OK_BODY),
    "bad-chunk-size": raw_reply(b"Transfer-Encoding: chunked", body=b"-5\r\n" + OK_BODY),
    "long-header-line": raw_reply(b"X-Long: " + b"a" * 65536, b"Content-Length: 0", body=b""),
    "101-headers": raw_reply(*[b"X-H: 1"] * 100, b"Content-Length: 0", body=b""),
    "closed-in-headers": b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
    "blank-status-line": b"\r\n",
    "closed-after-interim": b"HTTP/1.1 100 Continue\r\n\r\n",
}


@pytest.mark.parametrize("reply", list(FRAMING_FAULTS.values()), ids=list(FRAMING_FAULTS))
def test_http_reply_that_cannot_be_framed_is_unavailable_and_closes_the_socket(raw_server, reply):
    server = raw_server(reply, close_after=True)
    backend = HttpBackend(base_url=server.base_url, model="m1", timeout_s=5, max_attempts=1)
    with pytest.raises(Unavailable):
        within(30, lambda: backend.generate(GenerationRequest("P", greedy())))
    assert idle_connections(backend) == []


def test_http_accepts_exactly_100_headers(raw_server):
    server = raw_server(raw_reply(*[b"X-H: 1"] * 99, b"Content-Length: %d" % len(OK_BODY)))
    backend = HttpBackend(base_url=server.base_url, model="m1", max_attempts=1)
    assert within(30, lambda: ask(backend, 1)) == [("ok",)]


@pytest.mark.parametrize("token", ["sekret\r\nX-Injected: 1", "sekret\nX: 1", "sekret€"])
def test_http_header_that_cannot_be_sent_raises_before_anything_is_sent(
    raw_server, monkeypatch, token
):
    server = raw_server(raw_reply(b"Content-Length: %d" % len(OK_BODY)))
    monkeypatch.setenv("RECITEQA_API_KEY", token)
    backend = HttpBackend(base_url=server.base_url, model="m1", max_attempts=1)
    with pytest.raises(ValueError) as raised:
        within(30, lambda: backend.generate(GenerationRequest("P", greedy())))
    assert "sekret" not in str(raised.value)
    assert (server.connections, server.requests) == (0, 0)


@pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl command")
def test_https_verifies_the_server_certificate(tmp_path, local_server):
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        [
            "openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
            "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "1",
            "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
        ],
        check=True, capture_output=True, timeout=60,
    )
    server, base_url = local_server("reply")
    context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
    context.load_cert_chain(cert, key)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    base_url = base_url.replace("http:", "https:")
    sleeps = []
    backend = HttpBackend(base_url=base_url, model="m1", timeout_s=5, sleep=sleeps.append)
    # No retry can make a certificate verify, so the first failure is final.
    with pytest.raises(BackendError, match="CERTIFICATE_VERIFY_FAILED") as raised:
        within(30, lambda: backend.generate(GenerationRequest("P", greedy())))
    assert not raised.value.retryable
    assert sleeps == []
    # The same server passes once its certificate is trusted: the failure
    # above was verification, not the TLS exchange.
    backend._transport._ssl_context = ssl.create_default_context(cafile=str(cert))
    assert within(30, lambda: ask(backend, 2)) == [("ok",)] * 2
    assert (server.requests, len(idle_connections(backend))) == (2, 1)
