"""Loopback stand-in for an OpenAI-style chat completions server.

Run as its own process:

    PYTHONPATH=src python perfbench/mockserver.py --problems problems.jsonl --seed 6

It binds 127.0.0.1 on an ephemeral port, precomputes one response body per
prompt the pipeline will send (annotate's chain-of-thought prompts and
evaluate's instruction prompts), then prints `PORT <n>` and serves:

- POST /v1/chat/completions: the stub backend's texts for the prompt, after
  a fixed service delay that stands in for the model. A fixed, seeded set
  of prompts answers its first request with 503 and a Retry-After header,
  so the client's retry path runs.
- GET /stats: request and 503 counts since the last reset.
- POST /reset: zero the counts and re-arm the 503s.

The server stops when its standard input closes, so it cannot outlive
the benchmark process that started it.

A prompt outside the precomputed set is answered by the stub backend on
the spot, so a change to prompt formats still gets correct responses.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from graphcorpus.config import PipelineConfig
from graphcorpus.corpus import read_problems
from graphcorpus.errors import BackendError
from graphcorpus.sampler import (SampleProfile, StubBackend, get_profile,
                                 prompt_sha)
from graphcorpus.textgen import build_cot_prompt, wrap_instruction

import workloads

RETRY_AFTER_S = 1


class MockModel:
    """Precomputed responses plus the counters the benchmark reads."""

    def __init__(self, problems, *, seed: int, error_rate: float,
                 delay_s: float, retry_share: float):
        self.delay_s = delay_s
        self.backend = StubBackend(problems, error_rate=error_rate, seed=seed)
        shots = PipelineConfig().shots
        self.bodies: dict[tuple[str, int], bytes] = {}
        retry_pool = []
        for prompts, profile in (
                ([build_cot_prompt(p.task, p.text, shots=shots) for p in problems],
                 get_profile("initial")),
                ([wrap_instruction(p.text) for p in problems],
                 get_profile("eval"))):
            keys = []
            for prompt in prompts:
                key = (prompt_sha(prompt), profile.n)
                self.bodies[key] = self._body(self.backend.generate(prompt, profile))
                keys.append(key)
            k = math.ceil(retry_share * len(keys)) if retry_share > 0 else 0
            retry_pool += random.Random(f"{seed}:{profile.name}").sample(keys, k)
        self.retry_keys = frozenset(retry_pool)
        self._lock = threading.Lock()
        self.reset()

    @staticmethod
    def _body(texts: list[str]) -> bytes:
        return json.dumps({"object": "chat.completion", "choices": [
            {"index": i, "finish_reason": "stop",
             "message": {"role": "assistant", "content": t}}
            for i, t in enumerate(texts)]}).encode("utf-8")

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.retries = 0
            self._armed = set(self.retry_keys)

    def stats(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "retries": self.retries}

    def answer(self, payload: dict) -> tuple[int, bytes]:
        prompt = payload["messages"][-1]["content"]
        n = int(payload.get("n", 1))
        key = (prompt_sha(prompt), n)
        with self._lock:
            self.requests += 1
            if key in self._armed:
                self._armed.discard(key)
                self.retries += 1
                return 503, b'{"error": "overloaded"}'
        body = self.bodies.get(key)
        if body is None:
            try:
                texts = self.backend.generate(prompt, SampleProfile("mock", n, 0.9))
            except BackendError:
                return 400, b'{"error": "unknown prompt"}'
            body = self._body(texts)
        time.sleep(self.delay_s)
        return 200, body


def make_handler(model: MockModel):
    class Handler(BaseHTTPRequestHandler):
        def _send(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if status == 503:
                self.send_header("Retry-After", str(RETRY_AFTER_S))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, json.dumps(model.stats()).encode())
            else:
                self._send(404, b"{}")

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path == "/reset":
                model.reset()
                self._send(200, b"{}")
                return
            if self.path != "/v1/chat/completions":
                self._send(404, b"{}")
                return
            try:
                payload = json.loads(raw)
                status, body = model.answer(payload)
            except (ValueError, KeyError, TypeError, IndexError):
                status, body = 400, b'{"error": "malformed request"}'
            self._send(status, body)

        def log_message(self, format, *args):
            pass

    return Handler


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--problems", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    model = MockModel(read_problems(args.problems), seed=args.seed,
                      error_rate=workloads.ERROR_RATE,
                      delay_s=workloads.SERVER_DELAY_MS / 1000,
                      retry_share=workloads.SERVER_RETRY_SHARE)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(model))
    server.daemon_threads = True
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()),
                     daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
