"""Localhost chat-completion stub for the remote-select workload.

Run as ``python3 perfbench/stub.py``. It serves on 127.0.0.1 at a free port,
prints the port on its first output line, and every request waits a fixed
``DELAY_S`` before it is answered. Closing its standard input
stops it; it then prints its counters as one JSON line and exits.

The answer depends only on the prompt text, so reruns see the same answers:
the top candidate, another candidate, text that names no candidate, and for
some prompts a 503 on the first attempt (the retry is then answered). The
stub counts requests, accepted connections and 200 responses. The remote
backend turns every failure into a silent abstention, so these counts are
the only honest source for how many queries failed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.05  # the fixed service delay of every request
OFF_LIST = "I cannot tell which of these it is."
TRANSIENT_PCT = 15  # share of prompts whose first attempt gets a 503
TOP_PCT = 55  # answers: top candidate, else OTHER_PCT another one, else off-list
OTHER_PCT = 25


def candidate_names(prompt: str) -> list[str]:
    for block in prompt.split("\n\n"):
        lines = block.split("\n")
        if lines[0] == "Candidates:":
            return [line.removesuffix("[ENTITY]") for line in lines[1:]]
    return []


def answer_for(prompt: str) -> tuple[str, str, bool]:
    """(kind, text, transient) for a prompt; kind is top, other or off_list."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    transient = digest[0] % 100 < TRANSIENT_PCT
    names = candidate_names(prompt)
    roll = digest[1] % 100
    if names and roll < TOP_PCT:
        return "top", names[0], transient
    if len(names) > 1 and roll < TOP_PCT + OTHER_PCT:
        return "other", names[1 + digest[2] % (len(names) - 1)], transient
    return "off_list", OFF_LIST, transient


class Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), Handler)
        self.lock = threading.Lock()
        self.seen: set[bytes] = set()
        self.counts = {"connections": 0, "requests": 0, "status_503": 0, "ok": 0, "top": 0, "other": 0, "off_list": 0}

    def process_request(self, request, client_address):
        with self.lock:
            self.counts["connections"] += 1
        super().process_request(request, client_address)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # lets a client keep its connection open

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        server: Server = self.server
        time.sleep(DELAY_S)
        try:
            prompt = json.loads(body)["messages"][0]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            self._reply(400, {"error": "bad request"})
            return
        kind, text, transient = answer_for(prompt)
        key = hashlib.sha256(prompt.encode("utf-8")).digest()
        with server.lock:
            server.counts["requests"] += 1
            first = key not in server.seen
            server.seen.add(key)
            fail = transient and first
            server.counts["status_503" if fail else "ok"] += 1
            if not fail:
                server.counts[kind] += 1
        if fail:
            self._reply(503, {"error": "busy"})
        else:
            self._reply(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep stdout for the port and the counts
        pass


def main() -> int:
    server = Server()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    print(json.dumps(server.counts), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
