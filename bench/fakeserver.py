"""Fake chat-completions server for the ``http-loopback`` workload.

Usage: ``python3 bench/fakeserver.py <src-dir>``. It binds 127.0.0.1 on a free
port, prints ``PORT <n>`` and serves one connection at a time until it is
terminated or its parent exits.

- ``POST /scenario/<name>/chat/completions`` answers from the bundled
  scripted table for scenario ``<name>``. The purpose is read from the system
  preamble. The content is the table entry serialised as ``ScriptedBackend``
  serialises it; a missing entry is answered with prose, which the client
  rejects as a schema violation just as ``ScriptedBackend`` rejects it.
- ``GET /digest`` returns ``{"count": n, "sha256": hex}`` over every
  completion request body received since the last ``POST /reset``, each
  prefixed by its length.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

# Words that identify each purpose's system preamble.
_PURPOSE_BY_PREAMBLE = (
    ("hazard analyst", "hazard_and_plan"),
    ("motion planner", "short_term_motion"),
    ("safety limits", "safety_constraints"),
)


class _State:
    def __init__(self, table: dict) -> None:
        self.table = table
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.digest = hashlib.sha256()

    def note(self, body: bytes) -> None:
        self.count += 1
        self.digest.update(len(body).to_bytes(8, "big") + body)


def _purpose(body: dict) -> str:
    preamble = body["messages"][0]["content"]
    for words, purpose in _PURPOSE_BY_PREAMBLE:
        if words in preamble:
            return purpose
    raise ValueError(f"unrecognised system preamble: {preamble[:60]!r}")


def make_handler(state: _State) -> type:
    class Handler(BaseHTTPRequestHandler):
        def _reply(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:
            if self.path != "/digest":
                self._reply(404, {"error": "not found"})
                return
            self._reply(200, {"count": state.count, "sha256": state.digest.hexdigest()})

        def do_POST(self) -> None:
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                state.reset()
                self._reply(200, {"ok": True})
                return
            parts = self.path.strip("/").split("/")
            if len(parts) != 4 or parts[0] != "scenario" or parts[2:] != ["chat", "completions"]:
                self._reply(404, {"error": "not found"})
                return
            state.note(raw)
            try:
                purpose = _purpose(json.loads(raw))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self._reply(400, {"error": str(exc)})
                return
            entry = state.table.get(purpose, {}).get(parts[1])
            if entry is None:
                content = f"no scripted response for {parts[1]}"
            else:
                content = json.dumps(entry, sort_keys=True, separators=(",", ":"))
            self._reply(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})

        def log_message(self, *args: object) -> None:
            pass

    return Handler


def main(src: str) -> None:
    sys.path.insert(0, src)
    from rco.backend import ScriptedBackend

    state = _State(ScriptedBackend.bundled().table)
    parent = os.getppid()
    server = HTTPServer(("127.0.0.1", 0), make_handler(state))
    server.timeout = 1.0
    print(f"PORT {server.server_port}", flush=True)
    try:
        while os.getppid() == parent:
            server.handle_request()
    finally:
        server.server_close()


if __name__ == "__main__":
    main(sys.argv[1])
