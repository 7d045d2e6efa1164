"""Localhost completions stub for the reciteqa benchmark (stdlib only).

Serves POST /completions in the shape `HttpBackend` expects, answering from
the oracle table after a fixed injected latency. Requests named in the
malformed set get a 200 reply whose body has no `choices`. Each reply goes
out in one write on a TCP_NODELAY socket: a stock handler writes headers and
body separately, which on a keep-alive connection stalls the client for a
delayed ACK (about 40 ms) on every request.

GET /stats returns the counters: connections that carried a completion
request, requests, bytes in each direction and malformed replies. Stats
traffic is not counted.

Run: python3 perfbench/stub.py --table T --malformed M --latency-ms 5
It prints the bound port on its first stdout line and serves until SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import Oracle, UnknownPrompt  # noqa: E402


class _CountingReader:
    """Counts the bytes the handler consumes from the socket."""

    def __init__(self, raw):
        self.raw = raw
        self.count = 0

    def readline(self, *args):
        line = self.raw.readline(*args)
        self.count += len(line)
        return line

    def read(self, *args):
        data = self.raw.read(*args)
        self.count += len(data)
        return data

    def close(self):
        self.raw.close()


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.values = {
            "connections": 0,
            "requests": 0,
            "bytes_received": 0,
            "bytes_sent": 0,
            "malformed": 0,
        }

    def add(self, **deltas: int) -> None:
        with self.lock:
            for key, delta in deltas.items():
                self.values[key] += delta

    def snapshot(self) -> dict:
        with self.lock:
            return dict(self.values)


def make_handler(oracle: Oracle, malformed: set, latency_s: float, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.rfile = _CountingReader(self.rfile)
            self.counted_connection = False

        def log_message(self, format, *args):
            pass

        def _reply(self, status: int, body: dict, on_send=None) -> None:
            """Send the whole response in one write; `on_send` gets its size
            first, so counters are current before the client can react."""
            data = json.dumps(body).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                + ("Connection: close\r\n" if self.close_connection else "")
                + "\r\n"
            ).encode("ascii")
            message = head + data
            if on_send is not None:
                on_send(len(message))
            self.wfile.write(message)

        def do_GET(self):
            self.rfile.count = 0
            if self.path == "/stats":
                self._reply(200, stats.snapshot())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            received, self.rfile.count = self.rfile.count, 0
            started = time.perf_counter()
            status, body, bad = 200, None, 0
            try:
                seed = int(payload.get("seed", 0))
                request = oracle.request_id(payload["prompt"], seed)
                if request in malformed:
                    body, bad = {"id": "cmpl", "model": payload.get("model", "")}, 1
                else:
                    texts = oracle.complete(payload["prompt"], seed, int(payload.get("n", 1)))
                    body = {
                        "id": "cmpl",
                        "object": "text_completion",
                        "model": payload.get("model", ""),
                        "choices": [
                            {"index": i, "text": t, "finish_reason": "stop"}
                            for i, t in enumerate(texts)
                        ],
                    }
            except (UnknownPrompt, KeyError, TypeError, ValueError) as exc:
                status, body = 400, {"error": f"unknown request: {exc}"}
            remaining = latency_s - (time.perf_counter() - started)
            if remaining > 0:
                time.sleep(remaining)
            new_connection = 0 if self.counted_connection else 1
            self.counted_connection = True
            self._reply(
                status,
                body,
                lambda sent: stats.add(
                    connections=new_connection,
                    requests=1,
                    bytes_received=received,
                    bytes_sent=sent,
                    malformed=bad,
                ),
            )

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    parser.add_argument("--malformed", required=True)
    parser.add_argument("--latency-ms", type=float, default=0.0)
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    oracle = Oracle.load(args.table)
    malformed = {
        tuple(entry) for entry in json.loads(Path(args.malformed).read_text(encoding="utf-8"))
    }
    handler = make_handler(oracle, malformed, args.latency_ms / 1000.0, Stats())
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
