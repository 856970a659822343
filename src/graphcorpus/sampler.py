"""Sampling backends and the caching batch driver.

Two backends share one interface: `StubBackend` fabricates reasoning paths
offline from the ground truth (deterministic per prompt and sample index)
for the prompts `wrap_instruction` and `build_cot_prompt` build, and raises
BackendError for any other; `HttpBackend` sends one request per call to an
OpenAI-compatible chat endpoint through the standard library's
`urllib.request`. Each backend names itself in `identity` and keeps no
count of its requests; a caller that wants one wraps the backend. The
stage passes every setting. `sample` keeps at most `jobs` requests in
flight: `jobs` worker threads and the calling thread pull prompts from one
queue, each holding one of `jobs` request slots only while a request is
out, not in a back-off before a retry, and none sent after the first
error. `sample` sizes every reply to the profile's n and keeps an
append-only JSONL cache so no prompt is paid for twice.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from typing import NamedTuple
from urllib.parse import urlsplit

from .config import has_type
from .corpus import parse_line
from .errors import BackendError, CacheError, InvalidSpecError, TransientError
from .grader import check_witness
from .textgen import Problem, problem_text
from .transcripts import make_transcript

MAX_RETRIES = 4              # retries of a request that raised TransientError
BACKOFF = 0.5                # seconds before the first retry, doubling


class SampleProfile(NamedTuple):
    name: str
    n: int
    temperature: float
    max_tokens: int = 2048
    prompt: str = "cot"      # annotate's prompt form: "cot" or "instruction"


PROFILES = {
    "initial": SampleProfile("initial", 3, 0.9),
    "augment": SampleProfile("augment", 30, 0.9),
    "dpo": SampleProfile("dpo", 20, 0.9, prompt="instruction"),
    "eval": SampleProfile("eval", 1, 0.0, 1024, prompt="instruction"),
}


def get_profile(name: str) -> SampleProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise InvalidSpecError(f"unknown sampling profile: {name}") from None


def prompt_sha(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class StubBackend:
    """Offline sampler that writes reasoning paths from the ground truth.

    error_rate is the chance a sampled path argues for a wrong answer; the
    draw is a pure function of (seed, prompt, sample index), so runs are
    reproducible across processes.
    """

    def __init__(self, problems: list[Problem], *, error_rate: float,
                 seed: int):
        if not 0.0 <= error_rate <= 1.0:
            raise InvalidSpecError("error_rate must be within [0, 1]")
        for p in problems:      # before any path is written from a bad answer
            if p.answer is None or not check_witness(p, p.answer):
                raise InvalidSpecError(
                    f"problem {p.id}: stored answer fails its witness check")
        self.error_rate = error_rate
        self.seed = seed
        self.identity = f"stub error_rate={float(error_rate)!r} seed={seed!r}"
        self._by_text = {p.text: p for p in problems}

    def generate(self, prompt: str, profile: SampleProfile) -> list[str]:
        problem = self._by_text.get(problem_text(prompt))
        if problem is None:
            raise BackendError("stub backend knows no problem for this prompt")
        sha = prompt_sha(prompt)
        out = []
        for i in range(profile.n):
            digest = hashlib.sha256(
                f"{self.seed}:{sha}:{i}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            correct = rng.random() >= self.error_rate
            out.append(make_transcript(problem, correct=correct, rng=rng))
        return out


def _mend_surrogates(text: str) -> str:
    """text with each unpaired surrogate, which a JSON "\\ud83d" escape with
    no partner decodes to and no UTF-8 file can hold, replaced by U+FFFD."""
    return text.encode("utf-16-le", "surrogatepass").decode("utf-16-le",
                                                            "replace")


class HttpBackend:
    """OpenAI-compatible chat completions client that sends one request per
    call: a retry status or a broken connection raises TransientError."""

    RETRY_STATUSES = frozenset({429, 500, 502, 503, 504})
    TIMEOUT = 120.0          # seconds per request

    def __init__(self, base_url: str, model: str, *, api_key: str | None):
        try:
            parts = urlsplit(base_url)    # raises on an unclosed "[" host
        except ValueError:
            parts = None
        if not (parts and parts.scheme in ("http", "https") and parts.hostname):
            raise InvalidSpecError(f"base URL {base_url!r} is not http(s)://host")
        if api_key and not all("!" <= ch <= "~" for ch in api_key):
            # no echo: the message lands in logs, and the key is a secret
            raise InvalidSpecError("API key has a character that is not "
                                   "visible ASCII (a trailing newline?)")
        self.url = base_url.rstrip("/") + "/v1/chat/completions"
        self.model = model
        self.identity = f"http url={self.url} model={model}"   # no API key
        self.api_key = api_key

    def generate(self, prompt: str, profile: SampleProfile) -> list[str]:
        import http.client          # deferred: only HTTP stages pay for these
        import urllib.error
        import urllib.request

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": profile.temperature,
            "max_tokens": profile.max_tokens,
            "n": profile.n,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(self.url, json.dumps(payload).encode(),
                                         headers)
        # IncompleteRead (a body cut short) and a bad header are no OSError
        try:
            try:
                resp = urllib.request.urlopen(request, timeout=self.TIMEOUT)
            except urllib.error.HTTPError as err:
                resp = err            # a reply that is not 2xx reads the same
            with resp:
                status, data = resp.status, resp.read()
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise TransientError(f"connection error: {exc}") from exc
        if status in self.RETRY_STATUSES:
            raise TransientError(f"status {status}")
        if status != 200:
            raise BackendError(f"backend rejected the request (status {status}): "
                               + data.decode("utf-8", "replace")[:200])
        try:
            choices = json.loads(data)["choices"]
            texts = [c["message"]["content"] for c in choices]
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendError(f"malformed response body: {exc}") from exc
        if not has_type(texts, list[str | None]):
            raise BackendError("malformed response body: a content "
                               "is neither a string nor null")
        return [_mend_surrogates(t) if t else "" for t in texts]


_KEY_FIELDS = ("prompt_sha", "profile", "temperature", "max_tokens", "backend")


class Cache:
    """Append-only JSONL completion cache.

    A line is keyed by the prompt sha, the profile's name, temperature and
    max_tokens, and the identity of the backend that wrote it, so one cache
    file never replays one backend's or one setting's completions to
    another. Lines without those fields (written before they were keyed)
    load as keys nothing looks up: misses, not errors.

    Every put writes one whole line, so a final line without its newline
    was cut short by a killed process: loading drops it with a warning and
    truncates the file back to the last newline, so the next put starts a
    fresh line. Any other line that breaks `corpus.parse_line`'s rules for
    stage files, or holds no key or texts, raises CacheError.
    """

    def __init__(self, path: str):
        self.path = path
        self._store: dict[tuple, list[str]] = {}
        self._lock = threading.Lock()
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise       # no put could create it: fail before any request
            return
        complete = 0                  # bytes up to the last newline
        torn = False
        with fh:
            for lineno, line in enumerate(fh, 1):
                if not line.endswith(b"\n"):
                    import logging      # deferred: only a torn line logs
                    logging.getLogger(__name__).warning(
                        "%s:%d: dropping a torn final line (%d bytes)",
                        path, lineno, len(line))
                    torn = True
                    break
                complete += len(line)
                try:
                    rec = parse_line(line)
                    if rec is None:
                        continue
                    key = (rec["prompt_sha"], rec["profile"],
                           *(rec.get(f) for f in _KEY_FIELDS[2:]))
                    hash(key)         # a list or object key field is unhashable
                except (ValueError, KeyError, TypeError) as exc:
                    raise CacheError(
                        f"{path}:{lineno}: unreadable cache line: {exc}") from exc
                if not has_type(rec.get("texts"), list[str]):
                    raise CacheError(
                        f"{path}:{lineno}: texts is not a list of strings")
                self._store[key] = rec["texts"]      # last write wins
        if torn:
            os.truncate(path, complete)

    @staticmethod
    def _key(sha: str, profile: SampleProfile, backend: str) -> tuple:
        return sha, profile.name, profile.temperature, profile.max_tokens, backend

    def lookup(self, sha: str, profile: SampleProfile, backend: str
               ) -> list[str] | None:
        got = self._store.get(self._key(sha, profile, backend))
        if got is None or len(got) < profile.n:
            return None
        return got[: profile.n]

    def put(self, sha: str, profile: SampleProfile, texts: list[str],
            backend: str) -> None:
        key = self._key(sha, profile, backend)
        line = json.dumps(dict(zip(_KEY_FIELDS, key), texts=texts),
                          ensure_ascii=False)
        with self._lock:
            self._store[key] = texts
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")


def sample(prompts: list[str], profile: SampleProfile, backend, *,
           cache: Cache | None, jobs: int,
           max_requests: int | None) -> list[list[str]]:
    """Collect profile.n completions per prompt, using the cache when it can
    (cache lines are keyed on `backend.identity`).

    max_requests caps the prompts sent, which are the cache misses (a hit is
    free); the up to MAX_RETRIES retries of a prompt do not count against
    it. The cap is checked up front, so a too-large batch fails before
    spending money, and a negative one is an InvalidSpecError.
    A reply is trimmed to profile.n texts; one with fewer is padded with ""
    and not cached, so the next run asks for that prompt again.

    A TransientError is retried up to MAX_RETRIES times, after a back-off of
    BACKOFF seconds that doubles each time. A runner holds one of `jobs`
    request slots only while its request is out, never in a back-off, and
    one more runner than slots pulls prompts, so the next prompt is asked
    while one waits out a back-off. No request starts after the first error
    (or Ctrl-C), which is raised here once the requests in flight end.
    """
    if profile.n < 1:
        raise InvalidSpecError("profile.n must be at least 1")
    if jobs < 1:
        raise InvalidSpecError("jobs must be at least 1")
    if max_requests is not None and max_requests < 0:
        raise InvalidSpecError("max_requests must not be negative")
    results: list[list[str] | None] = [None] * len(prompts)
    misses: list[int] = []
    shas = [prompt_sha(p) for p in prompts]
    for i, sha in enumerate(shas):
        hit = (cache.lookup(sha, profile, backend.identity)
               if cache is not None else None)
        if hit is not None:
            results[i] = hit
        else:
            misses.append(i)
    if max_requests is not None and len(misses) > max_requests:
        raise BackendError(
            f"batch needs {len(misses)} requests but only {max_requests} allowed")

    slots = threading.Semaphore(jobs)      # one per request in flight
    todo = iter(misses)
    take = threading.Lock()
    failed: list[BaseException] = []

    def ask(i: int) -> list[str] | None:
        """The texts of prompts[i], or None once a runner has failed; a
        failure is recorded before its slot is freed."""
        for attempt in range(MAX_RETRIES + 1):
            with slots:                     # held only while a request is out
                if failed:
                    return None
                try:
                    try:
                        return backend.generate(prompts[i], profile)[: profile.n]
                    except TransientError as exc:
                        if attempt == MAX_RETRIES:
                            raise BackendError(f"retries exhausted ({exc})") from exc
                except BaseException as exc:    # Ctrl-C too
                    failed.append(exc)
                    return None
            time.sleep(BACKOFF * 2 ** attempt)  # the slot is free meanwhile

    def run() -> None:
        try:
            while True:
                with take:
                    i = next(todo, None)
                if i is None or (texts := ask(i)) is None:
                    return
                if cache is not None and len(texts) == profile.n:
                    cache.put(shas[i], profile, texts, backend.identity)
                results[i] = texts + [""] * (profile.n - len(texts))
        except BaseException as exc:    # Ctrl-C in a back-off, a failed put
            failed.append(exc)

    # the calling thread is the spare runner, so Ctrl-C lands in a runner
    workers = [threading.Thread(target=run)
               for _ in range(min(jobs, len(misses) - 1))]
    for w in workers:
        w.start()
    run()
    for w in workers:
        w.join()
    if failed:
        raise failed[0]
    return results
