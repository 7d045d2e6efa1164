"""Text-generation backends behind one interface: a remote HTTP
completions-style client and a deterministic scripted backend for tests,
plus bounded-concurrency batch dispatch, retries, and a disk cache."""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import random
import socket
import ssl
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import Executor
from dataclasses import dataclass, field
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path
from typing import Callable, Mapping, Sequence
from urllib.parse import urlsplit

from .core import (
    REQUIRED, AppendLog, SamplingParams, Strategy, canonical_json, check_fields, json_object,
    params_to_dict, read_log, read_text, validate,
)

__all__ = [
    "GenerationRequest",
    "GenerationResult",
    "BackendError",
    "Timeout",
    "RateLimited",
    "Unavailable",
    "MalformedResponse",
    "ScriptMiss",
    "Backend",
    "ScriptedBackend",
    "HttpBackend",
    "DEFAULT_AUTH_ENV",
    "DEFAULT_TIMEOUT_S",
    "CachingBackend",
    "check_base_url",
    "is_header_text",
    "prompt_key",
    "cache_key",
    "truncate_at_stop",
]

logger = logging.getLogger(__name__)

MAX_ATTEMPTS = 5
BACKOFF_BASE_S = 0.5
# The variable HttpBackend reads its auth token from, unless told another.
DEFAULT_AUTH_ENV = "RECITEQA_API_KEY"
DEFAULT_TIMEOUT_S = 60.0


class BackendError(Exception):
    retryable = False


class Timeout(BackendError):
    retryable = True


class RateLimited(BackendError):
    retryable = True


class Unavailable(BackendError):
    """A 502, 503 or 504 reply, a connection refused or dropped, or a reply
    that cannot be framed. A TLS certificate that cannot be verified is a
    plain, non-retryable BackendError instead."""

    retryable = True


class MalformedResponse(BackendError):
    pass


class ScriptMiss(BackendError):
    """The scripted backend has no entry for a prompt; carries the prompt
    hash and an excerpt to ease fixture authoring."""

    def __init__(self, key: str, prompt: str):
        excerpt = prompt[:120].replace("\n", "\\n")
        super().__init__(f"no scripted entry for prompt {key} (prompt starts: {excerpt!r})")
        self.key = key


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    params: SamplingParams
    n_samples: int = 1


@dataclass(frozen=True)
class GenerationResult:
    texts: tuple[str, ...]
    meta: Mapping[str, str] = field(default_factory=dict)
    cache_hit: bool = False

    def __post_init__(self):
        object.__setattr__(self, "texts", tuple(self.texts))
        object.__setattr__(self, "meta", dict(self.meta))


def _check_request(request: GenerationRequest) -> None:
    if not request.prompt:
        raise ValueError("generation request has an empty prompt")
    issues = validate(request.params)
    if issues:
        raise ValueError(f"invalid sampling params: {'; '.join(issues)}")
    if request.n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {request.n_samples}")
    if request.params.strategy is Strategy.GREEDY and request.n_samples != 1:
        raise ValueError("greedy decoding is deterministic; n_samples must be 1")


def truncate_at_stop(text: str, stop_sequences: Sequence[str]) -> str:
    """Cut at the earliest stop-sequence occurrence, excluding the stop."""
    cut = len(text)
    for stop in stop_sequences:
        if not stop:
            continue
        idx = text.find(stop)
        if idx != -1 and idx < cut:
            cut = idx
    return text[:cut]


def prompt_key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


def cache_key(backend_id: str, request: GenerationRequest) -> str:
    """sha256 of canonical_json({"backend", "n_samples", "params", "prompt"}).

    Sorted keys put "prompt" last, so the hashed bytes are a head, the
    canonical JSON of the other three fields up to its closing brace and
    then ',"prompt":', followed by the JSON-escaped prompt and "}". Each
    head is rendered once per run. CachingBackend.generate_batch hashes a
    prompt prefix shared by the requests of a whole run once per head, and
    each request's prompt past it; this function is the reference its keys
    equal."""
    return hashlib.sha256(
        _key_head(backend_id, request.params, request.n_samples) + _prompt_tail(request.prompt)
    ).hexdigest()


def _key_head(backend_id: str, params: SamplingParams, n_samples: int) -> bytes:
    # Equal params can render differently (temperature 1 and 1.0), so the
    # memo also keys on the types of their numbers.
    return _render_key_head(
        backend_id, params, n_samples, params.seed, params.max_tokens, params.k, params.temperature
    )


@functools.lru_cache(maxsize=256, typed=True)
def _render_key_head(backend_id: str, params: SamplingParams, n_samples: int, *numbers) -> bytes:
    head = canonical_json(
        {"backend": backend_id, "n_samples": n_samples, "params": params_to_dict(params)}
    )
    return f'{head[:-1]},"prompt":'.encode("utf-8")


def _prompt_tail(prompt: str) -> bytes:
    return (json.dumps(prompt, ensure_ascii=False) + "}").encode("utf-8")


def _escaped(text: str) -> bytes:
    """text as a quoted JSON string, as json.dumps(text, ensure_ascii=False)
    writes it. Escaping goes code point by code point, so the escapes of
    two pieces of a string, less the quotes between them, join to the
    escape of the whole. For ASCII text the faster ASCII-mode escape is the
    same except at DEL, which it writes as \\u007f, so ASCII text without
    DEL takes it."""
    if text.isascii() and "\x7f" not in text:
        return encode_basestring_ascii(text).encode()
    return encode_basestring(text).encode("utf-8")


def _shared_length(low: str, high: str) -> int:
    """Length of the common prefix of two strings, by binary search."""
    same, differs = 0, min(len(low), len(high)) + 1
    while differs - same > 1:
        mid = (same + differs) // 2
        if high.startswith(low[same:mid], same):
            same = mid
        else:
            differs = mid
    return same


class Backend(ABC):
    backend_id: str = "backend"

    @abstractmethod
    def generate(self, request: GenerationRequest) -> GenerationResult:
        """Produce n_samples completions for one request."""

    def generate_batch(
        self,
        requests_list: Sequence[GenerationRequest],
        max_in_flight: int,
        *,
        executor: Executor,
    ) -> list[GenerationResult | BackendError]:
        """Dispatch requests with at most max_in_flight outstanding; results
        align positionally with the inputs and a BackendError is returned
        in its slot rather than aborting the batch.

        The batch runs as min(max_in_flight, len(requests_list)) lanes, each
        of which takes the next unclaimed request until none is left, so a
        batch costs one task per helper lane rather than one per request.
        The calling thread is the first lane and submits only the others to
        `executor`, whose worker count also bounds them. Once its own lane
        is done the call cancels each helper still queued, which then never
        runs, and waits only for helpers already running. Any other
        exception stops the lanes from claiming further requests and is
        re-raised by the call once the running helpers have stopped: the
        calling thread's own, or else the first helper's in submission
        order. An exception that leaves a submit or the wait, such as a
        KeyboardInterrupt, stops them too and propagates at once. The call
        drops the requests and results its lanes share before it returns,
        so a cancelled helper still on the executor's queue holds neither.
        CachingBackend answers its hits on the calling thread and sends only
        its misses here."""
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        generate = self.generate
        lock = threading.Lock()
        indices = iter(range(len(requests_list)))
        requests: Sequence[GenerationRequest] | None = requests_list
        results: list | None = [None] * len(requests_list)

        def lane() -> None:
            nonlocal indices
            try:
                while True:
                    with lock:
                        index = next(indices, None)
                        claimed, slots = requests, results
                    if index is None:
                        return
                    try:
                        slots[index] = generate(claimed[index])
                    except BackendError as exc:
                        slots[index] = exc
            except BaseException:
                with lock:
                    indices = iter(())
                raise

        try:
            helpers = [
                executor.submit(lane) for _ in range(min(max_in_flight, len(requests_list)) - 1)
            ]
            try:
                lane()
            finally:
                errors = [helper.exception() for helper in helpers if not helper.cancel()]
            done = results
        finally:
            with lock:
                indices = iter(())
                requests = results = None
        for error in errors:
            if error is not None:
                raise error
        return done


# A script file; its "entries" map each prompt key to a response queue.
_SCRIPT_FIELDS = {
    "entries": (dict, {}),
    "prompts": ([{"prompt": (str, REQUIRED), "responses": ([str], REQUIRED)}], ()),
}


class ScriptedBackend(Backend):
    """Deterministic backend for tests: each prompt maps to an ordered
    response queue; sample i under seed s returns queue[(s + i) % len]
    (greedy always returns queue[0])."""

    backend_id = "scripted"

    def __init__(self, entries: Mapping[str, Sequence[str]] | None = None):
        self._entries: dict[str, tuple[str, ...]] = {
            key: tuple(queue) for key, queue in (entries or {}).items()
        }

    def register(self, prompt: str, responses: Sequence[str]) -> str:
        """Map a prompt to its response queue; returns the prompt key."""
        if not responses:
            raise ValueError("scripted responses must be nonempty")
        key = prompt_key(prompt)
        self._entries[key] = tuple(responses)
        return key

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        """Load a script file: {"entries": {key: [responses...]}} and/or
        {"prompts": [{"prompt": ..., "responses": [...]}]}, every response
        queue a non-empty list of strings. A file that is not such an
        object raises MalformedResponse naming it."""
        path = Path(path)
        try:
            text = read_text(path, MalformedResponse)
        except OSError as exc:
            raise MalformedResponse(f"cannot load script file {path}: {exc}") from None
        raw = json_object(text, str(path), MalformedResponse)
        script = check_fields(raw, _SCRIPT_FIELDS, str(path), MalformedResponse)
        # The keys of "entries" are prompt keys, so its map names the ones given.
        entries = script["entries"]
        queue_fields = dict.fromkeys(entries, ([str], REQUIRED))
        queues = check_fields(entries, queue_fields, f"{path}: entries", MalformedResponse)
        for entry in script["prompts"]:
            queues[prompt_key(entry["prompt"])] = entry["responses"]
        for key, queue in queues.items():
            if not queue:
                raise MalformedResponse(f"{path}: the responses for prompt key {key} are empty")
        return cls(queues)

    def generate(self, request: GenerationRequest) -> GenerationResult:
        _check_request(request)
        key = prompt_key(request.prompt)
        queue = self._entries.get(key)
        if not queue:
            raise ScriptMiss(key, request.prompt)
        if request.params.strategy is Strategy.GREEDY:
            start = 0
        else:
            start = request.params.seed % len(queue)
        texts = tuple(
            truncate_at_stop(
                queue[(start + i) % len(queue)], request.params.stop_sequences
            )
            for i in range(request.n_samples)
        )
        return GenerationResult(
            texts=texts,
            meta={"model": "scripted", "latency_ms": "0", "prompt_key": key},
        )


def check_base_url(base_url: str) -> None:
    """Raise ValueError unless base_url is an http or https URL with a host,
    if given a numeric port, and a path that a request line can carry:
    ASCII with no space or control character. It takes "/completions" at
    its end, so a query or fragment is refused, and so is a user:password@
    that would never be sent, without echoing it. The host must render as a
    request renders it, so a non-ASCII host must encode as IDNA."""
    if "@" in base_url.partition("//")[2].partition("/")[0]:
        raise ValueError("base_url must not carry user:password@; the token comes from auth_env")
    try:
        parts = urlsplit(base_url)
        parts.port
    except ValueError as exc:
        raise ValueError(f"invalid base_url {base_url!r}: {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"base_url must be an http or https URL with a host, got {base_url!r}")
    if "?" in base_url or "#" in base_url:
        raise ValueError(f"base_url must carry no query or fragment, got {base_url!r}")
    if not parts.path.isascii() or any(ch <= " " or ch == "\x7f" for ch in parts.path):
        raise ValueError(
            f"base_url path must be ASCII with no space or control character, got {base_url!r}"
        )
    try:
        _route(base_url)
    except UnicodeError as exc:
        raise ValueError(f"base_url host must encode as IDNA, got {base_url!r}: {exc}") from None


# Caps on one reply line and on a reply's header count, as in http.client.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# A body is read in pieces of at most this size, so a forged length cannot
# make the reader allocate it all up front.
_READ_PIECE = 1 << 20
_DEFAULT_PORTS = {"http": 80, "https": 443}
_HEX_DIGITS = b"0123456789abcdefABCDEF"


def is_header_text(text: str) -> bool:
    """Whether text can be sent as an HTTP header name or value: Latin-1,
    with no CR or LF."""
    if "\r" in text or "\n" in text:
        return False
    try:
        text.encode("latin-1")
    except UnicodeEncodeError:
        return False
    return True


class _BadReply(Exception):
    """A reply whose framing cannot be read."""


def _route(url: str) -> tuple[tuple[str, str, int], str]:
    """(origin, request head up to the per-request headers) for a POST to a
    url that check_base_url accepts.

    Host is rendered as http.client renders it: an IPv6 literal in brackets
    and no port when it is the scheme's default."""
    parts = urlsplit(url)
    scheme, host = parts.scheme, parts.hostname
    port = parts.port or _DEFAULT_PORTS[scheme]
    name = host if host.isascii() else host.encode("idna").decode("ascii")
    if ":" in name:
        name = f"[{name}]"
    if port != _DEFAULT_PORTS[scheme]:
        name = f"{name}:{port}"
    head = f"POST {parts.path} HTTP/1.1\r\nHost: {name}\r\nAccept-Encoding: identity\r\n"
    return (scheme, host, port), head


def _readline(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _BadReply(f"a reply line is longer than {_MAX_LINE} bytes")
    return line


def _read_fields(reader) -> dict[bytes, bytes]:
    """Header or trailer fields up to the blank line, by lower-cased name."""
    fields = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _readline(reader)
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise _BadReply("the connection closed inside the reply's headers")
        name, _, value = line.partition(b":")
        fields[name.strip().lower()] = value.strip()
    raise _BadReply(f"the reply has more than {_MAX_HEADERS} headers")


def _read_exact(reader, size: int) -> bytes:
    pieces = []
    while size > 0:
        piece = reader.read(min(size, _READ_PIECE))
        if not piece:
            raise _BadReply("the connection closed inside the reply's body")
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def _read_chunked(reader) -> bytes:
    pieces = []
    while True:
        line = _readline(reader)
        size = line.split(b";", 1)[0].strip()
        if not size or size.strip(_HEX_DIGITS):
            raise _BadReply(f"bad chunk size line {line[:40]!r}")
        size = int(size, 16)
        if not size:
            break
        pieces.append(_read_exact(reader, size))
        if _readline(reader) not in (b"\r\n", b"\n"):
            raise _BadReply("a chunk does not end where its size says")
    _read_fields(reader)  # the trailer
    return b"".join(pieces)


def _read_reply(reader, line: bytes) -> tuple[int, bytes, bool]:
    """(status, body, keep_alive) of a reply whose first line is read.

    Interim 1xx replies are skipped. The body is framed by chunked transfer
    encoding, else by Content-Length, else by the end of the stream. The
    connection stays alive under HTTP/1.1 unless the reply says
    `Connection: close`, under HTTP/1.0 only if it says `Connection:
    keep-alive`, and never after a body read to the end of the stream.
    """
    while True:
        if len(line) > _MAX_LINE:
            raise _BadReply(f"a reply line is longer than {_MAX_LINE} bytes")
        # A line of fewer than two fields pads to an empty version or code.
        version, code = (line.split(None, 2) + [b"", b""])[:2]
        if (
            not version.startswith(b"HTTP/1.")
            or len(code) != 3
            or not code.isdigit()
            or code < b"100"
        ):
            raise _BadReply(f"bad status line {line[:80]!r}")
        status = int(code)
        fields = _read_fields(reader)
        if status >= 200:
            break
        line = reader.readline(_MAX_LINE + 1)
    connection = fields.get(b"connection", b"").lower()
    if version == b"HTTP/1.0":
        keep_alive = b"keep-alive" in connection
    else:
        keep_alive = b"close" not in connection
    if status in (204, 304):
        return status, b"", keep_alive
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, _read_chunked(reader), keep_alive
    length = fields.get(b"content-length")
    if length is None:
        return status, reader.read(), False
    if not length.isdigit():
        raise _BadReply(f"bad Content-Length {length[:40]!r}")
    return status, _read_exact(reader, int(length)), keep_alive


class _Connection:
    """A socket and the one buffered reader over it, closed together."""

    __slots__ = ("sock", "reader", "timeout_s")

    def __init__(self, sock: socket.socket, timeout_s: float):
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.timeout_s = timeout_s

    def exchange(self, message: bytes) -> bytes:
        """Send a request in one write and return the reply's first line. The
        end of the stream before that line raises ConnectionResetError."""
        self.sock.sendall(message)
        line = self.reader.readline(_MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("the connection closed before a reply")
        return line

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class _ConnectionPool:
    """HttpBackend's default transport: POSTs a JSON payload as HTTP/1.1 over
    kept-alive sockets and returns (status, body); HttpBackend describes the
    pooling and re-send rules.

    Each request is rendered whole, headers and body, and sent in one write,
    with the headers the stdlib http.client sends: Host, Accept-Encoding:
    identity, Content-Length and the caller's. A header name or value that
    holds CR or LF or is not Latin-1 raises ValueError, naming the header
    but not its value, before anything is sent. Each socket keeps one
    buffered reader for its life; _read_reply gives the framing and
    keep-alive rules. A reply line may hold at most 65536 bytes and a reply
    at most 100 headers.

    Idle connections wait on a lock-guarded list per origin, and a request
    takes the most recently used one; a connection goes back only after its
    reply was read completely. A socket timeout raises Timeout, a server
    certificate that cannot be verified raises BackendError, and other
    socket errors and any framing fault raise Unavailable; the socket is
    then closed. A body that is not a JSON object reads as {}.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[_Connection]] = {}
        self._routes: dict[str, tuple[tuple[str, str, int], str]] = {}
        self._ssl_context: ssl.SSLContext | None = None

    def __call__(
        self, url: str, payload: dict, headers: dict, timeout_s: float
    ) -> tuple[int, dict]:
        route = self._routes.get(url) or self._routes.setdefault(url, _route(url))
        origin, head = route
        data = json.dumps(payload).encode("utf-8")
        lines = [head, f"Content-Length: {len(data)}\r\n"]
        for name, value in headers.items():
            if not name or ":" in name or not (is_header_text(name) and is_header_text(value)):
                raise ValueError(
                    f"HTTP header {name!r} holds CR, LF or a character outside Latin-1"
                )
            lines.append(f"{name}: {value}\r\n")
        lines.append("\r\n")
        message = "".join(lines).encode("latin-1") + data
        conn = None
        try:
            conn, reused = self._take(origin, timeout_s)
            try:
                line = conn.exchange(message)
            except ConnectionError:
                # The server closed the idle connection before this request.
                if not reused:
                    raise
                conn.close()
                conn = self._connect(origin, timeout_s)
                line = conn.exchange(message)
            status, raw, keep_alive = _read_reply(conn.reader, line)
        except TimeoutError as exc:
            if conn is not None:
                conn.close()
            raise Timeout(f"request to {url} timed out after {timeout_s}s") from exc
        except (OSError, _BadReply) as exc:
            if conn is not None:
                conn.close()
            if isinstance(exc, ssl.SSLCertVerificationError):
                # No retry can make the certificate verify.
                raise BackendError(f"cannot verify the certificate of {url}: {exc}") from exc
            raise Unavailable(f"cannot reach {url}: {exc!r}") from exc
        if keep_alive:
            with self._lock:
                self._idle.setdefault(origin, []).append(conn)
        else:
            conn.close()
        try:
            body = json.loads(raw)
        except ValueError:
            body = None
        return status, body if isinstance(body, dict) else {}

    def _take(self, origin: tuple, timeout_s: float) -> tuple[_Connection, bool]:
        """An idle connection to the origin (reused=True) or a new one."""
        with self._lock:
            idle = self._idle.get(origin)
            conn = idle.pop() if idle else None
        if conn is None:
            return self._connect(origin, timeout_s), False
        if conn.timeout_s != timeout_s:
            conn.timeout_s = timeout_s
            conn.sock.settimeout(timeout_s)
        return conn, True

    def _connect(self, origin: tuple, timeout_s: float) -> _Connection:
        scheme, host, port = origin
        sock = socket.create_connection((host, port), timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                if self._ssl_context is None:
                    self._ssl_context = ssl.create_default_context()
                sock = self._ssl_context.wrap_socket(sock, server_hostname=host)
            return _Connection(sock, timeout_s)
        except BaseException:
            sock.close()
            raise

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()

    __del__ = close


class HttpBackend(Backend):
    """Client for an HTTP JSON completions-style endpoint.

    Sends {model, prompt, max_tokens, n, stop, [temperature, top_k, seed]}
    to <base_url>/completions and reads {"choices": [{"text": ...}, ...]}.
    The auth token comes from an environment variable, never configuration.
    Timeouts, connection errors and statuses 429, 502, 503 and 504 retry
    with exponential backoff plus jitter, up to MAX_ATTEMPTS; other failures,
    a server certificate that cannot be verified among them, are fatal for
    the request at once. Sampling seeds are forwarded best-effort;
    determinism is only guaranteed by the scripted backend.

    The default transport speaks HTTP/1.1 itself on stdlib sockets and
    `ssl`, sends each request in one write and keeps connections alive.
    Each backend owns a pool of idle connections that grows only to the
    number of requests in flight. A connection returns to the pool after a
    reply read completely unless the reply ends the connection (HTTP/1.1
    with `Connection: close`, HTTP/1.0 without `Connection: keep-alive`, or
    a body framed by the end of the stream), and is closed on any error. A
    reply that cannot be framed (a bad status line, a bad Content-Length, a
    cut-short body or chunk, a line over 65536 bytes or over 100 headers)
    is Unavailable. A request that meets a connection error, or the end of
    the stream, on a reused idle connection before any status line arrives
    is sent once more, at once, on a fresh connection; that re-send is not
    an attempt and is not backed off. Sockets set TCP_NODELAY. Dropping the
    backend closes its idle sockets. Proxy environment variables are not
    read, and HTTPS verifies the certificate and host name against the
    system CA store. `transport(url, payload, headers, timeout_s) ->
    (status, body)` replaces the default transport, e.g. in tests.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        auth_env: str = DEFAULT_AUTH_ENV,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        max_attempts: int = MAX_ATTEMPTS,
        transport: Callable[[str, dict, dict, float], tuple[int, dict]] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        check_base_url(base_url)
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.auth_env = auth_env
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        # A separate object, not a bound method: a method stored on self
        # would make a reference cycle and keep idle sockets open until the
        # cyclic garbage collector runs.
        self._transport = transport or _ConnectionPool()
        self._sleep = sleep
        self._jitter = random.Random()
        self.backend_id = f"http:{self.base_url}:{model}"

    def _payload(self, request: GenerationRequest) -> dict:
        params = request.params
        payload = {
            "model": self.model,
            "prompt": request.prompt,
            "max_tokens": params.max_tokens,
            "n": request.n_samples,
            "stop": list(params.stop_sequences),
        }
        if params.strategy is Strategy.GREEDY:
            payload["temperature"] = 0.0
        else:
            payload["temperature"] = params.temperature
            payload["top_k"] = params.k
            payload["seed"] = params.seed
        return payload

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def generate(self, request: GenerationRequest) -> GenerationResult:
        _check_request(request)
        url = f"{self.base_url}/completions"
        payload = self._payload(request)
        headers = self._headers()
        attempt = 0
        while True:
            attempt += 1
            started = time.monotonic()
            try:
                status, body = self._transport(url, payload, headers, self.timeout_s)
                if status == 429:
                    raise RateLimited(f"rate limited by {url}")
                if status in (502, 503, 504):
                    raise Unavailable(f"{url} returned status {status}")
                if status != 200:
                    raise MalformedResponse(f"{url} returned status {status}")
                result = self._parse_body(request, body, started)
                return result
            except BackendError as exc:
                if not exc.retryable or attempt >= self.max_attempts:
                    raise
                delay = BACKOFF_BASE_S * 2 ** (attempt - 1)
                delay += self._jitter.uniform(0, delay / 2)
                logger.warning(
                    "retrying after %s (attempt %d/%d, sleeping %.2fs)",
                    exc,
                    attempt,
                    self.max_attempts,
                    delay,
                )
                self._sleep(delay)

    def _parse_body(
        self, request: GenerationRequest, body: dict, started: float
    ) -> GenerationResult:
        choices = body.get("choices")
        if not isinstance(choices, list) or len(choices) < request.n_samples:
            raise MalformedResponse(
                f"response carries {0 if not isinstance(choices, list) else len(choices)} "
                f"choices, expected {request.n_samples}"
            )
        texts = []
        for i in range(request.n_samples):
            text = choices[i].get("text") if isinstance(choices[i], dict) else None
            if not isinstance(text, str):
                raise MalformedResponse(f"choice {i} has no text field")
            texts.append(truncate_at_stop(text, request.params.stop_sequences))
        latency_ms = int((time.monotonic() - started) * 1000)
        meta = {"model": str(body.get("model", self.model)), "latency_ms": str(latency_ms)}
        usage = body.get("usage")
        if isinstance(usage, dict):
            for key in ("prompt_tokens", "completion_tokens", "total_tokens"):
                if key in usage:
                    meta[key] = str(usage[key])
        return GenerationResult(texts=tuple(texts), meta=meta)


# The most key heads a CachingBackend remembers a shared prompt prefix for;
# past it, the head remembered first is dropped.
_MAX_PREFIX_HEADS = 256

# One line of the generation cache.
_CACHE_LINE_FIELDS = {"key": (str, REQUIRED), "texts": ([str], REQUIRED), "meta": (dict, {})}


def _cache_entry(line: str) -> tuple[str, tuple[str, ...], dict[str, str]]:
    """(key, texts, meta) of one cache line; ValueError if it is corrupt."""
    entry = json_object(line, "entry", ValueError, _CACHE_LINE_FIELDS)
    if not entry["texts"]:
        raise ValueError("entry: texts must not be empty")
    return entry["key"], entry["texts"], {k: str(v) for k, v in entry["meta"].items()}


class CachingBackend(Backend):
    """Transparent append-only disk cache around another backend.

    The cache file is a core.AppendLog of one JSON object per entry, keyed
    by cache_key and loaded on construction; the first entry for a key wins,
    so retries can never install divergent values. A line that is not a
    JSON object with a "key" string, a non-empty "texts" list of strings
    and, if present, a "meta" object is corrupt. Corrupt lines and cache
    I/O failures degrade to misses with a logged warning. A miss's entry is
    flushed as it is stored, so an interrupted run loses none; close() or
    dropping the backend closes the log's handle.

    generate_batch answers a batch's hits on the calling thread, with no
    task on the executor, and sends only its misses through
    Backend.generate_batch to generate.
    """

    def __init__(self, inner: Backend, path: str | Path):
        self._lock = threading.Lock()
        self.inner = inner
        self.backend_id = inner.backend_id
        self._path = Path(path)
        self._entries: dict[str, tuple[tuple[str, ...], dict[str, str]]] = {}
        # The keys of the misses of the batches in progress, so generate
        # does not hash them again. Equal requests have equal keys, so
        # concurrent batches that share a request cannot disagree.
        self._miss_keys: dict[GenerationRequest, str] = {}
        # Per key head, (text, state): a prefix of the prompts keyed under
        # that head, and the SHA-256 state after the head and that prefix's
        # escape. An entry is replaced, never changed, and its state only
        # copied, so keys are computed from it without the lock.
        self._prefixes: dict[bytes, tuple[str, "hashlib._Hash"]] = {}
        self._log = None  # until the file opens; each store tries again
        try:
            self._log = AppendLog(self._path)
            for key, texts, meta in read_log(self._path, _cache_entry):
                self._entries.setdefault(key, (texts, meta))
        except OSError as exc:
            logger.warning("cannot read cache %s: %s", self._path, exc)

    def _store(self, key: str, result: GenerationResult) -> None:
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = (result.texts, dict(result.meta))
            line = canonical_json(
                {"key": key, "texts": list(result.texts), "meta": dict(result.meta)}
            )
            try:
                if self._log is None:
                    self._log = AppendLog(self._path)
                self._log.append(line)
            except OSError as exc:
                logger.warning("cannot append to cache %s: %s", self._path, exc)

    def close(self) -> None:
        """Close the append handle; a later miss opens it again."""
        with self._lock:
            if self._log is not None:
                self._log.close()

    def generate(self, request: GenerationRequest) -> GenerationResult:
        key = self._miss_keys.get(request) or cache_key(self.backend_id, request)
        with self._lock:
            hit = self._entries.get(key)
        if hit is not None:
            texts, meta = hit
            return GenerationResult(texts=texts, meta=meta, cache_hit=True)
        result = self.inner.generate(request)
        self._store(key, result)
        return result

    def generate_batch(
        self,
        requests_list: Sequence[GenerationRequest],
        max_in_flight: int,
        *,
        executor: Executor,
    ) -> list[GenerationResult | BackendError]:
        """Backend.generate_batch, with the hits answered first on the
        calling thread and every hit read under one lock. Only the misses
        go through Backend.generate_batch, as lanes, to generate; an all-hit
        batch submits nothing to the executor. _keys says how the keys are
        computed."""
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        keys = self._keys(requests_list)
        results: list[GenerationResult | BackendError | None] = [None] * len(keys)
        misses = []
        with self._lock:
            for i, key in enumerate(keys):
                hit = self._entries.get(key)
                if hit is None:
                    misses.append(i)
                else:
                    results[i] = GenerationResult(texts=hit[0], meta=hit[1], cache_hit=True)
        if not misses:
            return results
        missed = [requests_list[i] for i in misses]
        for i, request in zip(misses, missed):
            self._miss_keys[request] = keys[i]
        try:
            outcomes = Backend.generate_batch(self, missed, max_in_flight, executor=executor)
        finally:
            for request in missed:
                self._miss_keys.pop(request, None)
        for i, outcome in zip(misses, outcomes):
            results[i] = outcome
        return results

    def _keys(self, requests_list: Sequence[GenerationRequest]) -> list[str]:
        """The cache_key of each request.

        Each key copies the state remembered for its key head, the SHA-256
        state after the head and the escape of a prefix of the prompt, and
        hashes the escape of the rest of its prompt. So a run's few-shot
        block is hashed once per head, not once per request. A head seen for
        the first time remembers its whole prompt; a prompt that does not
        start with the remembered prefix replaces it by the prefix the two
        share, which is hashed again. Two prompt families under one head
        shrink it to their common prefix, and each key then hashes its
        prompt past that prefix, at most what cache_key hashes. The head
        of each distinct params object and sample count is looked up once
        per batch: an answer batch shares one params object."""
        keys = []
        # Heads by params identity, which the batch keeps alive: hashing a
        # params object costs what the lookup saves.
        heads: dict[tuple[int, int], bytes] = {}
        # The last prefix remembered and its escape less the closing quote,
        # and the last prompt, prefix and escaped tail keyed: a sampling
        # batch repeats one prompt under many heads, and each is escaped once.
        seeded = ("", b'"')
        last = ("", None, b"")
        for request in requests_list:
            prompt = request.prompt
            shape = (id(request.params), request.n_samples)
            head = heads.get(shape)
            if head is None:
                head = heads[shape] = _key_head(
                    self.backend_id, request.params, request.n_samples
                )
            remembered = self._prefixes.get(head)
            if remembered is None or not prompt.startswith(remembered[0]):
                text = prompt
                if remembered is not None:
                    text = prompt[: _shared_length(remembered[0], prompt)]
                if text != seeded[0]:
                    seeded = (text, _escaped(text)[:-1])
                remembered = (text, hashlib.sha256(head + seeded[1]))
                with self._lock:
                    if head not in self._prefixes and len(self._prefixes) >= _MAX_PREFIX_HEADS:
                        del self._prefixes[next(iter(self._prefixes))]
                    self._prefixes[head] = remembered
            text, state = remembered
            if (prompt, text) != last[:2]:
                last = (prompt, text, _escaped(prompt[len(text):])[1:] + b"}")
            hasher = state.copy()
            hasher.update(last[2])
            keys.append(hasher.hexdigest())
        return keys
