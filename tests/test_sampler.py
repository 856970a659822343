import ast
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import graphcorpus
from graphcorpus import sampler
from graphcorpus.cli import main
from graphcorpus.config import PipelineConfig
from graphcorpus.corpus import parse_line
from graphcorpus.errors import (BackendError, CacheError, InvalidSpecError,
                                TransientError)
from graphcorpus.generate import generate_corpus, generate_task
from graphcorpus.grader import judge
from graphcorpus.sampler import (PROFILES, Cache, HttpBackend, SampleProfile,
                                 StubBackend, get_profile, prompt_sha, sample)
from graphcorpus.textgen import build_cot_prompt, wrap_instruction

from oracles import CountingBackend

# the defaults a stage runs with
STAGE = PipelineConfig()


@pytest.fixture(scope="module")
def problems():
    return generate_task("cycle", 6, seed=11, split="sampler", seen=set())


def test_profile_table():
    assert (PROFILES["initial"].n, PROFILES["initial"].temperature) == (3, 0.9)
    assert (PROFILES["augment"].n, PROFILES["augment"].temperature) == (30, 0.9)
    assert (PROFILES["dpo"].n, PROFILES["dpo"].temperature) == (20, 0.9)
    ev = PROFILES["eval"]
    assert (ev.n, ev.temperature, ev.max_tokens) == (1, 0.0, 1024)
    assert {name: p.prompt for name, p in PROFILES.items()} == {
        "initial": "cot", "augment": "cot", "dpo": "instruction",
        "eval": "instruction"}
    assert get_profile("dpo") is PROFILES["dpo"]
    with pytest.raises(InvalidSpecError):
        get_profile("jumbo")


def test_stub_is_deterministic(problems):
    profile = get_profile("initial")
    prompt = wrap_instruction(problems[0].text)
    a = StubBackend(problems, seed=5,
                    error_rate=STAGE.stub_error_rate).generate(prompt, profile)
    b = StubBackend(problems, seed=5,
                    error_rate=STAGE.stub_error_rate).generate(prompt, profile)
    c = StubBackend(problems, seed=6,
                    error_rate=STAGE.stub_error_rate).generate(prompt, profile)
    assert a == b
    assert len(a) == 3
    assert a != c


def test_stub_error_rate_extremes(problems):
    profile = SampleProfile("wide", 8, 0.9)
    clean = StubBackend(problems, error_rate=0.0, seed=1)
    dirty = StubBackend(problems, error_rate=1.0, seed=1)
    for p in problems:
        prompt = wrap_instruction(p.text)
        assert all(judge(p, t).correct for t in clean.generate(prompt, profile))
        assert not any(judge(p, t).correct
                       for t in dirty.generate(prompt, profile))


def test_stub_error_rate_mixes(problems):
    profile = SampleProfile("wide", 10, 0.9)
    backend = StubBackend(problems, error_rate=0.4, seed=0)
    verdicts = [judge(p, t).correct
                for p in problems
                for t in backend.generate(wrap_instruction(p.text), profile)]
    wrong = verdicts.count(False)
    assert 0 < wrong < len(verdicts)
    assert 0.2 <= wrong / len(verdicts) <= 0.6


def test_stub_rejects_bad_error_rate(problems):
    with pytest.raises(InvalidSpecError):
        StubBackend(problems, error_rate=1.5, seed=STAGE.seed)


def test_stub_recognizes_prompt_formats(problems):
    # every prompt the stages build: annotate's chain-of-thought prompts at
    # any shot count, and dpo's and evaluate's instruction prompts
    corpus = generate_corpus(STAGE.tasks, 2, seed=4, split="test",
                             dedupe_keys=set())
    # a problem text may span lines
    p = problems[0]
    corpus.append(p._replace(text=p.text.replace(". ", ".\n", 1)))
    assert "\n" in corpus[-1].text
    profile = SampleProfile("two", 2, 0.9)
    backend = StubBackend(corpus, seed=2, error_rate=STAGE.stub_error_rate)
    for p in corpus:
        for prompt in (wrap_instruction(p.text),
                       *(build_cot_prompt(p.task, p.text, shots=k)
                         for k in (0, 1, 2))):
            texts = backend.generate(prompt, profile)
            assert len(texts) == 2
            assert all(judge(p, t).correct for t in texts), (p.id, prompt)


def test_stub_rejects_unknown_prompt(problems):
    # a prompt no stage builds names no problem, even one holding its text
    p = problems[0]
    backend = StubBackend(problems, error_rate=STAGE.stub_error_rate,
                          seed=STAGE.seed)
    for prompt in ("what is the capital of France?",
                   p.text,
                   f"Please answer carefully.\n\n{p.text}\n\nThanks!"):
        with pytest.raises(BackendError):
            backend.generate(prompt, get_profile("eval"))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

P3 = SampleProfile("p3", 3, 0.5)


STUB = "stub error_rate=0.0 seed=0"


def test_cache_roundtrip_and_truncation(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = Cache(str(path))
    assert cache.lookup("abc", P3, STUB) is None
    cache.put("abc", P3, ["one", "two", "three", "four"], STUB)
    assert cache.lookup("abc", P3, STUB) == ["one", "two", "three"]
    # fewer stored texts than the profile asks for is a miss
    cache.put("short", P3, ["only"], STUB)
    assert cache.lookup("short", P3, STUB) is None
    # same sha under another profile name is a distinct key
    assert cache.lookup("abc", SampleProfile("p1", 1, 0.0), STUB) is None
    reloaded = Cache(str(path))
    assert reloaded.lookup("abc", P3, STUB) == ["one", "two", "three"]


def test_cache_last_write_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = Cache(str(path))
    cache.put("k", P3, ["a", "b", "c"], STUB)
    cache.put("k", P3, ["x", "y", "z"], STUB)
    assert Cache(str(path)).lookup("k", P3, STUB) == ["x", "y", "z"]


def test_cache_rejects_corrupt_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"prompt_sha": "a", "profile": "p3", "texts": ["x"]}\n'
                    "not json at all\n", encoding="utf-8")
    with pytest.raises(CacheError) as err:
        Cache(str(path))
    assert f"{path}:2" in str(err.value)
    path.write_text('{"prompt_sha": "a", "profile": "p3", "texts": "x"}\n',
                    encoding="utf-8")
    with pytest.raises(CacheError):
        Cache(str(path))


def test_cache_rejects_unhashable_key_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    for line in ('{"prompt_sha": ["a"], "profile": "p3", "texts": []}',
                 '{"prompt_sha": "a", "profile": "p3", "backend": {"x": 1}, '
                 '"texts": []}'):
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(CacheError) as err:
            Cache(str(path))
        assert f"{path}:1: unreadable cache line" in str(err.value)


def test_cache_rejects_texts_that_are_not_strings(tmp_path):
    # such a line would reach the grader as a completion that is no text
    path = tmp_path / "bad.jsonl"
    for texts in ("[7]", '["x", null]', '[["x"]]'):
        path.write_text('{"prompt_sha": "a", "profile": "p3", "texts": '
                        + texts + "}\n", encoding="utf-8")
        with pytest.raises(CacheError) as err:
            Cache(str(path))
        assert f"{path}:1: texts is not a list of strings" in str(err.value)


def test_cache_rejects_a_lone_surrogate_escape(tmp_path):
    # "\ud83d" alone loads as a string that no UTF-8 paths file can hold;
    # an escaped backslash before "ud83d", or a whole pair, is a text
    path = tmp_path / "bad.jsonl"
    good = (r'{"prompt_sha": "a", "profile": "p3", "texts": ["\\ud83d", '
            r'"\ud83d\ude00"]}' + "\n")
    path.write_text(good, encoding="utf-8")
    Cache(str(path))
    path.write_text(good + r'{"prompt_sha": "b", "profile": "p3", '
                    r'"texts": ["x \ud83d"]}' + "\n", encoding="utf-8")
    with pytest.raises(CacheError) as err:
        Cache(str(path))
    assert f"{path}:2: " in str(err.value) and "surrogate" in str(err.value)


@pytest.mark.parametrize("bad,reason", [
    (b"\xff\n", "can't decode byte 0xff"),
    (b"not json at all\n", "Expecting value"),
    (b'["prompt_sha", "profile", "texts"]\n', "record is not an object"),
    (rb'{"prompt_sha": "b", "profile": "p3", "texts": ["x \ud83d"]}' + b"\n",
     "unpaired surrogate"),
], ids=["not-utf8", "not-json", "json-list", "lone-surrogate"])
def test_stage_files_and_the_cache_read_lines_alike(tmp_path, bad, reason):
    # a blank line is skipped by both; the next one fails both alike
    path = tmp_path / "lines.jsonl"
    Cache(str(path)).put("a", P3, ["x", "y", "z"], STUB)
    with open(path, "ab") as fh:
        fh.write(b"  \n")
    lines = path.read_bytes().splitlines(keepends=True)
    assert [parse_line(line) is None for line in lines] == [False, True]
    assert Cache(str(path)).lookup("a", P3, STUB) == ["x", "y", "z"]
    with open(path, "ab") as fh:
        fh.write(bad)
    with pytest.raises(ValueError) as line_err:
        parse_line(bad)
    with pytest.raises(CacheError) as cache_err:
        Cache(str(path))
    assert str(cache_err.value).startswith(f"{path}:3: unreadable cache line")
    assert reason in str(line_err.value) and reason in str(cache_err.value)


def test_cache_drops_torn_final_line(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    cache = Cache(str(path))
    cache.put("a", P3, ["x", "y", "z"], STUB)
    cache.put("b", P3, ["p", "q", "r"], STUB)
    whole = path.read_bytes()
    # a process killed mid-put leaves part of a line and no newline
    path.write_bytes(whole + b'{"prompt_sha": "c", "profile": "p3", "te')
    with caplog.at_level("WARNING", logger="graphcorpus.sampler"):
        reloaded = Cache(str(path))
    assert "torn final line" in caplog.text and f"{path}:3" in caplog.text
    assert reloaded.lookup("a", P3, STUB) == ["x", "y", "z"]
    assert reloaded.lookup("b", P3, STUB) == ["p", "q", "r"]
    assert reloaded.lookup("c", P3, STUB) is None
    assert path.read_bytes() == whole           # fragment truncated away
    reloaded.put("c", P3, ["1", "2", "3"], STUB)
    assert Cache(str(path)).lookup("c", P3, STUB) == ["1", "2", "3"]


def test_cache_torn_tail_does_not_excuse_corrupt_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"prompt_sha": "a", "profile": "p3", "texts": ["x"]}\n'
    path.write_text(good + "not json at all\n" + good + '{"prompt_sha"',
                    encoding="utf-8")
    with pytest.raises(CacheError) as err:
        Cache(str(path))
    assert f"{path}:2" in str(err.value)


def test_cache_never_replays_another_backends_completions(tmp_path, problems):
    profile = get_profile("initial")
    prompts = [wrap_instruction(p.text) for p in problems]
    path = str(tmp_path / "c.jsonl")
    clean = StubBackend(problems, error_rate=0.0, seed=1)
    first = sample(prompts, profile, clean, cache=Cache(path), jobs=STAGE.jobs,
                   max_requests=None)
    dirty = CountingBackend(StubBackend(problems, error_rate=1.0, seed=2))
    second = sample(prompts, profile, dirty, cache=Cache(path),
                    jobs=STAGE.jobs, max_requests=None)
    assert dirty.requests == len(prompts)         # one request per prompt
    assert second != first
    assert not any(judge(p, t).correct for p, ts in zip(problems, second)
                   for t in ts)
    # each backend now hits its own lines
    again = CountingBackend(StubBackend(problems, error_rate=1.0, seed=2))
    assert sample(prompts, profile, again, cache=Cache(path), jobs=STAGE.jobs,
                  max_requests=None) == second
    assert again.requests == 0


def test_cache_keys_on_sampling_settings(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = Cache(str(path))
    cache.put("k", P3, ["a", "b", "c"], STUB)
    assert cache.lookup("k", P3, STUB) == ["a", "b", "c"]
    assert cache.lookup("k", P3, "stub error_rate=0.0 seed=1") is None
    assert cache.lookup("k", SampleProfile("p3", 3, 0.9), STUB) is None
    assert cache.lookup("k", SampleProfile("p3", 3, 0.5, 512), STUB) is None
    # a line written before these fields were keyed is a miss, not an error
    path.write_text('{"prompt_sha": "k", "profile": "p3", "texts": ["x", "y", "z"]}\n',
                    encoding="utf-8")
    old = Cache(str(path))
    assert old.lookup("k", P3, "") is None
    assert old.lookup("k", P3, STUB) is None


def test_http_identity_names_url_and_model_not_key():
    a = HttpBackend("http://host:1/", "m1", api_key="sekrit")
    assert "http://host:1" in a.identity and "m1" in a.identity
    assert "sekrit" not in a.identity
    assert a.identity == HttpBackend("http://host:1", "m1",
                                     api_key=None).identity
    assert a.identity != HttpBackend("http://host:1", "m2",
                                     api_key=None).identity
    assert a.identity != HttpBackend("http://host:2", "m1",
                                     api_key=None).identity


# ---------------------------------------------------------------------------
# the batch driver
# ---------------------------------------------------------------------------

def test_sample_orders_results_per_prompt(problems):
    profile = SampleProfile("two", 2, 0.9)
    backend = StubBackend(problems, seed=9, error_rate=STAGE.stub_error_rate)
    prompts = [wrap_instruction(p.text) for p in problems]
    out = sample(prompts, profile, backend, cache=None, jobs=STAGE.jobs,
                 max_requests=None)
    assert len(out) == len(problems)
    for p, texts in zip(problems, out):
        assert len(texts) == 2
        assert all(judge(p, t).correct for t in texts)


def test_sample_uses_cache(tmp_path, problems):
    profile = get_profile("initial")
    prompts = [wrap_instruction(p.text) for p in problems]
    backend = CountingBackend(StubBackend(
        problems, error_rate=STAGE.stub_error_rate, seed=4))
    cache = Cache(str(tmp_path / "c.jsonl"))
    first = sample(prompts, profile, backend, cache=cache, jobs=STAGE.jobs,
                   max_requests=None)
    assert backend.requests == len(prompts)
    again = sample(prompts, profile, backend, cache=cache, jobs=STAGE.jobs,
                   max_requests=None)
    assert backend.requests == len(prompts)      # all hits, no new calls
    assert again == first
    cold = Cache(str(tmp_path / "c.jsonl"))
    assert sample(prompts, profile, backend, cache=cold, jobs=STAGE.jobs,
                  max_requests=None) == first
    assert backend.requests == len(prompts)


def test_sample_budget_checked_up_front(tmp_path, problems):
    profile = get_profile("eval")
    prompts = [wrap_instruction(p.text) for p in problems]
    backend = CountingBackend(StubBackend(
        problems, error_rate=STAGE.stub_error_rate, seed=STAGE.seed))
    with pytest.raises(BackendError):
        sample(prompts, profile, backend, max_requests=len(prompts) - 1,
               cache=None, jobs=STAGE.jobs)
    assert backend.requests == 0                 # failed before any call
    cache = Cache(str(tmp_path / "c.jsonl"))
    sample(prompts[:2], profile, backend, cache=cache, jobs=STAGE.jobs,
           max_requests=None)
    # cached prompts are free under the budget
    out = sample(prompts[:3], profile, backend, cache=cache, max_requests=1,
                 jobs=STAGE.jobs)
    assert len(out) == 3


def test_sample_trims_a_long_reply_before_caching(tmp_path, problems):
    # a backend that sends more texts than asked for gives the same n
    # texts cold and warm, and the cache holds only those n
    class Wordy(StubBackend):
        def generate(self, prompt, profile):
            return super().generate(
                prompt, SampleProfile("more", profile.n + 1, 0.9))

    profile = SampleProfile("two", 2, 0.9)
    prompts = [wrap_instruction(p.text) for p in problems]
    path = str(tmp_path / "c.jsonl")
    backend = CountingBackend(
        Wordy(problems, error_rate=STAGE.stub_error_rate, seed=8))
    cold = sample(prompts, profile, backend, cache=Cache(path),
                  jobs=STAGE.jobs, max_requests=None)
    warm = sample(prompts, profile, backend, cache=Cache(path),
                  jobs=STAGE.jobs, max_requests=None)
    assert backend.requests == len(prompts)      # the warm run sent none
    assert all(len(texts) == 2 for texts in cold)
    assert warm == cold
    with open(path, encoding="utf-8") as fh:
        assert all(len(json.loads(line)["texts"]) == 2 for line in fh)


def test_sample_parallel_matches_serial(problems):
    profile = SampleProfile("two", 2, 0.9)
    prompts = [wrap_instruction(p.text) for p in problems]
    backend = StubBackend(problems, error_rate=STAGE.stub_error_rate, seed=3)
    serial = sample(prompts, profile, backend, cache=None, jobs=1,
                    max_requests=None)
    threaded = sample(prompts, profile, backend, cache=None, jobs=4,
                      max_requests=None)
    assert serial == threaded


def _contended(fn):
    """Run fn with the interpreter switching threads as often as it can, so
    an unlocked read-modify-write would lose updates."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fn()
    finally:
        sys.setswitchinterval(interval)


def test_stub_request_count_is_exact_under_threads(problems):
    prompts = [wrap_instruction(p.text) for p in problems] * 50
    backend = CountingBackend(StubBackend(
        problems, error_rate=STAGE.stub_error_rate, seed=2))
    out = _contended(lambda: sample(prompts, get_profile("eval"), backend,
                                    jobs=8, cache=None, max_requests=None))
    assert len(out) == len(prompts)
    assert backend.requests == len(prompts)     # one per cache miss


def test_sample_validates_inputs(problems):
    backend = StubBackend(problems, error_rate=STAGE.stub_error_rate,
                          seed=STAGE.seed)
    assert sample([], get_profile("eval"), backend, cache=None,
                  jobs=STAGE.jobs, max_requests=None) == []
    with pytest.raises(InvalidSpecError):
        sample(["x"], SampleProfile("none", 0, 0.0), backend, cache=None,
               jobs=STAGE.jobs, max_requests=None)
    with pytest.raises(InvalidSpecError):
        sample(["x"], get_profile("eval"), backend, jobs=0, cache=None,
               max_requests=None)
    with pytest.raises(InvalidSpecError, match="max_requests must not be"):
        sample(["x"], get_profile("eval"), backend, jobs=STAGE.jobs,
               cache=None, max_requests=-1)


# ---------------------------------------------------------------------------
# http backend against a scripted local server
# ---------------------------------------------------------------------------

class _Scripted(BaseHTTPRequestHandler):
    script: list = []
    seen: list = []
    reply = None          # if set, the script entry for a request's prompt
    delay = 0.0           # seconds each request waits before its reply
    active = peak = 0     # requests being answered: now, and the most at once
    lock = threading.Lock()

    def do_POST(self):
        cls = type(self)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        cls.seen.append((self.headers.get("Authorization"), body))
        # an entry is (status, payload) or (status, payload, bytes the
        # body falls short of its Content-Length); status None closes the
        # connection with no reply
        with cls.lock:
            cls.active += 1
            cls.peak = max(cls.peak, cls.active)
            entry = (cls.reply(body["messages"][0]["content"]) if cls.reply
                     else cls.script.pop(0))
        time.sleep(cls.delay)
        with cls.lock:        # before the reply, so the count never overshoots
            cls.active -= 1
        self._answer(*entry)

    def _answer(self, status, payload, *short):
        if status is None:
            return
        data = payload if isinstance(payload, bytes) else \
            json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data) + sum(short)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def server():
    _Scripted.script = []
    _Scripted.seen = []
    _Scripted.reply = None
    _Scripted.delay = 0.0
    _Scripted.active = _Scripted.peak = 0
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Scripted)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_port}", _Scripted
    httpd.shutdown()
    httpd.server_close()


def _choices(*texts):
    return {"choices": [{"message": {"content": t}} for t in texts]}


def test_http_success_and_headers(server):
    base, handler = server
    handler.script.append((200, _choices("alpha", "beta")))
    backend = HttpBackend(base, "test-model", api_key="sekrit")
    out = backend.generate("hello", SampleProfile("two", 2, 0.7))
    assert out == ["alpha", "beta"]
    auth, payload = handler.seen[0]
    assert auth == "Bearer sekrit"
    assert payload["model"] == "test-model"
    assert payload["n"] == 2 and payload["temperature"] == 0.7


def test_http_retries_transient_errors(server, monkeypatch):
    base, handler = server
    handler.script += [(500, {"err": "boom"}), (429, {"err": "slow down"}),
                       (200, _choices("ok"))]
    monkeypatch.setattr(sampler, "BACKOFF", 0.01)
    backend = CountingBackend(HttpBackend(base, "m", api_key=None))
    assert sample(["x"], get_profile("eval"), backend, cache=None,
                  jobs=STAGE.jobs, max_requests=None) == [["ok"]]
    assert backend.requests == 3


def test_http_gives_up_after_retries(server, monkeypatch):
    base, handler = server
    handler.script += [(503, {})] * 3
    monkeypatch.setattr(sampler, "MAX_RETRIES", 2)
    monkeypatch.setattr(sampler, "BACKOFF", 0.01)
    backend = HttpBackend(base, "m", api_key=None)
    with pytest.raises(BackendError) as err:
        sample(["x"], get_profile("eval"), backend, cache=None,
               jobs=STAGE.jobs, max_requests=None)
    assert "retries exhausted" in str(err.value)
    assert "503" in str(err.value)


def test_http_generate_sends_one_request(server):
    # the retry is sample's: a 503 is a transient error after one request
    base, handler = server
    handler.script += [(503, {}), (200, _choices("never asked"))]
    backend = CountingBackend(HttpBackend(base, "m", api_key=None))
    with pytest.raises(TransientError) as err:
        backend.generate("x", get_profile("eval"))
    assert str(err.value) == "status 503"
    assert backend.requests == 1 and len(handler.seen) == 1


class _Flaky:
    """An in-process backend that raises a transient error for the first
    `fails` requests of a prompt, then answers."""

    identity = "flaky"

    def __init__(self, fails):
        self.fails, self.requests = fails, []

    def generate(self, prompt, profile):
        self.requests.append(prompt)
        if self.requests.count(prompt) <= self.fails:
            raise TransientError("status 503")
        return ["re " + prompt] * profile.n


def test_sample_retries_a_transient_error_after_a_doubling_back_off(
        monkeypatch):
    slept = []
    monkeypatch.setattr(sampler.time, "sleep", slept.append)
    backend = _Flaky(fails=2)
    assert sample(["x"], get_profile("eval"), backend, cache=None,
                  jobs=STAGE.jobs, max_requests=None) == [["re x"]]
    assert backend.requests == ["x"] * 3 and slept == [0.5, 1.0]
    slept.clear()
    backend = _Flaky(fails=5)
    with pytest.raises(BackendError) as err:
        sample(["x"], get_profile("eval"), backend, cache=None,
               jobs=STAGE.jobs, max_requests=None)
    assert str(err.value) == "retries exhausted (status 503)"
    assert len(backend.requests) == 5 and slept == [0.5, 1.0, 2.0, 4.0]


def test_a_fatal_error_ends_the_retries_of_other_prompts():
    # p0 sends no retry after p1's error, let alone all its back-offs (7.5 s)
    class Fatal(_Flaky):
        def generate(self, prompt, profile):
            if prompt == "p1":
                threading.Event().wait(0.05)
                raise BackendError("bad key")
            return super().generate(prompt, profile)

    backend = Fatal(fails=5)
    with pytest.raises(BackendError) as err:
        sample(["p0", "p1"], get_profile("eval"), backend, jobs=2, cache=None,
               max_requests=None)
    assert str(err.value) == "bad key" and backend.requests == ["p0"]


def test_no_request_starts_after_the_first_error():
    # one slot, and every request fails after 0.1 s: the runner waiting for
    # the slot sees the first error and asks nothing
    class Fails(_Flaky):
        def generate(self, prompt, profile):
            super().generate(prompt, profile)
            threading.Event().wait(0.1)
            raise BackendError("bad key")

    backend = Fails(fails=0)
    with pytest.raises(BackendError) as err:
        sample(["p0", "p1", "p2"], get_profile("eval"), backend, jobs=1,
               cache=None, max_requests=None)
    assert str(err.value) == "bad key" and len(backend.requests) == 1


def test_ctrl_c_in_a_back_off_stops_without_taking_the_slot_back(
        monkeypatch):
    # Ctrl-C hits p0's back-off while the other runner holds the lent slot
    # for p1, which fails 0.2 s later. A runner that waited to take its slot
    # back would stop after that, and p1's error would be the one raised.
    p1_asked = threading.Event()

    class Slow(_Flaky):
        def generate(self, prompt, profile):
            if prompt == "p1":
                p1_asked.set()
                threading.Event().wait(0.2)
                raise BackendError("p1 failed")
            return super().generate(prompt, profile)

    def interrupt(seconds):
        p1_asked.wait(5)
        raise KeyboardInterrupt

    monkeypatch.setattr(sampler.time, "sleep", interrupt)
    backend = Slow(fails=1)
    with pytest.raises(KeyboardInterrupt):
        sample([f"p{i}" for i in range(20)], get_profile("eval"), backend,
               jobs=1, cache=None, max_requests=None)
    assert p1_asked.is_set() and backend.requests == ["p0"]


def test_http_client_errors_do_not_retry(server, monkeypatch):
    base, handler = server
    handler.script.append((401, {"error": "bad key"}))
    monkeypatch.setattr(sampler, "BACKOFF", 0.01)
    backend = CountingBackend(HttpBackend(base, "m", api_key=None))
    with pytest.raises(BackendError) as err:
        sample(["x"], get_profile("eval"), backend, cache=None,
               jobs=STAGE.jobs, max_requests=None)
    assert str(err.value) == ('backend rejected the request (status 401): '
                              '{"error": "bad key"}')
    assert backend.requests == 1


def test_http_rejects_malformed_body(server):
    base, handler = server
    handler.script += [(200, b"this is not json")] * 2
    backend = CountingBackend(HttpBackend(base, "m", api_key=None))
    with pytest.raises(BackendError) as err:
        backend.generate("x", get_profile("eval"))
    assert "malformed response body" in str(err.value)
    with pytest.raises(BackendError) as err:
        sample(["x"], get_profile("eval"), backend, cache=None,
               jobs=STAGE.jobs, max_requests=None)
    assert "malformed response body" in str(err.value)
    assert backend.requests == 2            # not retried


def test_http_rejects_content_that_is_not_text(server):
    # a null content is an empty completion; a number or a list is no text
    base, handler = server
    handler.script += [(200, _choices(None, "b")), (200, _choices("a", 7)),
                       (200, _choices(["a"]))]
    backend = HttpBackend(base, "m", api_key=None)
    assert backend.generate("x", SampleProfile("two", 2, 0.7)) == ["", "b"]
    for _ in range(2):
        with pytest.raises(BackendError) as err:
            backend.generate("x", SampleProfile("two", 2, 0.7))
        assert "malformed response body" in str(err.value)


def test_http_pads_missing_choices(server):
    base, handler = server
    handler.script.append((200, _choices("only one")))
    backend = HttpBackend(base, "m", api_key=None)
    out = sample(["x"], SampleProfile("three", 3, 0.9), backend, cache=None,
                 jobs=STAGE.jobs, max_requests=None)
    assert out == [["only one", "", ""]]


def test_short_reply_is_requested_again(tmp_path, server):
    # a padded reply is not cached, so the next run asks the server again
    base, handler = server
    handler.script += [(200, _choices("only one")),
                       (200, _choices("a", "b", "c"))]
    profile = SampleProfile("three", 3, 0.9)
    path = str(tmp_path / "cache.jsonl")
    first = sample(["x"], profile, HttpBackend(base, "m", api_key=None),
                   cache=Cache(path), jobs=STAGE.jobs, max_requests=None)
    second = sample(["x"], profile, HttpBackend(base, "m", api_key=None),
                    cache=Cache(path), jobs=STAGE.jobs, max_requests=None)
    third = sample(["x"], profile, HttpBackend(base, "m", api_key=None),
                   cache=Cache(path), jobs=STAGE.jobs, max_requests=None)
    assert first == [["only one", "", ""]]
    assert second == third == [["a", "b", "c"]]
    assert len(handler.seen) == 2


def test_http_request_count_is_exact_under_threads(server, monkeypatch):
    base, handler = server
    prompts = [f"prompt {i}" for i in range(64)]
    handler.script += [(200, _choices("ok"))] * len(prompts)
    monkeypatch.setattr(HttpBackend, "TIMEOUT", 10)
    backend = CountingBackend(HttpBackend(base, "m", api_key=None))
    out = _contended(lambda: sample(prompts, get_profile("eval"), backend,
                                    jobs=8, cache=None, max_requests=None))
    assert out == [["ok"]] * len(prompts)
    assert backend.requests == len(prompts)     # one per cache miss


def test_a_back_off_lends_its_slot_to_the_next_prompt(server, monkeypatch):
    # one slot: b is asked while a waits out the back-off after its 503
    base, handler = server
    handler.script += [(503, {}), (200, _choices("for b")),
                       (200, _choices("for a"))]
    monkeypatch.setattr(sampler, "BACKOFF", 0.2)
    out = sample(["a", "b"], get_profile("eval"), HttpBackend(base, "m",
                                                              api_key=None),
                 jobs=1, cache=None, max_requests=None)
    assert [payload["messages"][0]["content"]
            for _, payload in handler.seen] == ["a", "b", "a"]
    assert out == [["for a"], ["for b"]]


def _cached_shas(path):
    return [json.loads(line)["prompt_sha"]
            for line in path.read_text(encoding="utf-8").splitlines()]


def test_cache_lines_are_written_in_prompt_order(server, tmp_path,
                                                 monkeypatch):
    # p0 waits out a back-off after its 503 while the others are answered;
    # their lines wait for p0's, so two runs write the same file
    base, handler = server
    refused = set()

    def reply(prompt):
        if prompt == "p0" and prompt not in refused:
            refused.add(prompt)
            return 503, {}
        return 200, _choices("re " + prompt)

    handler.reply = reply
    monkeypatch.setattr(sampler, "BACKOFF", 0.2)
    prompts = [f"p{i}" for i in range(6)]
    path = tmp_path / "cache.jsonl"
    out = sample(prompts, get_profile("eval"), HttpBackend(base, "m",
                                                           api_key=None),
                 jobs=2, cache=Cache(str(path)), max_requests=None)
    assert out == [["re " + p] for p in prompts]
    assert len(handler.seen) == 7
    assert _cached_shas(path) == [prompt_sha(p) for p in prompts]


def test_a_failure_still_writes_the_lines_held_behind_it(tmp_path):
    # p0 fails after the others are answered: their lines, held for p0's,
    # were paid for, so they are written before the error is raised
    class Fatal(_Flaky):
        def generate(self, prompt, profile):
            if prompt == "p0":
                threading.Event().wait(0.2)
                raise BackendError("bad key")
            return super().generate(prompt, profile)

    path = tmp_path / "cache.jsonl"
    with pytest.raises(BackendError, match="bad key"):
        sample(["p0", "p1", "p2", "p3"], get_profile("eval"), Fatal(fails=0),
               jobs=2, cache=Cache(str(path)), max_requests=None)
    assert _cached_shas(path) == [prompt_sha(p) for p in ("p1", "p2", "p3")]


def test_requests_in_flight_never_exceed_jobs(server, monkeypatch):
    base, handler = server
    prompts = [f"prompt {i}" for i in range(40)]
    refused = set()

    def reply(prompt):            # every fifth prompt answers 503 once
        if int(prompt.split()[1]) % 5 == 0 and prompt not in refused:
            refused.add(prompt)
            return 503, {}
        return 200, _choices("re " + prompt)

    handler.reply, handler.delay = reply, 0.01
    monkeypatch.setattr(sampler, "BACKOFF", 0.02)
    backend = CountingBackend(HttpBackend(base, "m", api_key=None))
    out = sample(prompts, get_profile("eval"), backend, jobs=2, cache=None,
                 max_requests=None)
    assert out == [["re " + p] for p in prompts]
    assert handler.peak == 2
    assert backend.requests == len(handler.seen) == 48


def test_a_fatal_error_stops_every_runner(server):
    base, handler = server
    prompts = [f"prompt {i}" for i in range(200)]
    handler.reply = lambda prompt: ((401, {"error": "bad key"})
                                    if prompt == prompts[0]
                                    else (200, _choices("ok")))
    handler.delay = 0.005
    with pytest.raises(BackendError) as err:
        sample(prompts, get_profile("eval"), HttpBackend(base, "m",
                                                         api_key=None), jobs=2,
               cache=None, max_requests=None)
    assert str(err.value) == ('backend rejected the request (status 401): '
                              '{"error": "bad key"}')
    assert len(handler.seen) < 10


def test_a_lone_surrogate_in_a_completion_is_replaced(server, tmp_path):
    # a JSON "\ud83d" escape alone is no text a UTF-8 file can hold
    base, handler = server
    handler.script.append(
        (200, _choices("half an emoji \ud83d here", "whole \U0001f600", "c")))
    problems = tmp_path / "problems.jsonl"
    assert main(["generate", "--tasks", "cycle", "--count", "1", "--seed", "3",
                 "--split", "test", "--out", str(problems)]) == 0
    cache = tmp_path / "cache.jsonl"
    http = ["annotate", "--problems", str(problems), "--backend", "http",
            "--base-url", base, "--model", "m", "--cache", str(cache)]
    for name in ("cold.jsonl", "warm.jsonl"):
        assert main([*http, "--out", str(tmp_path / name)]) == 0
    assert len(handler.seen) == 1          # the warm run read the cache line
    texts = ["half an emoji \ufffd here", "whole \U0001f600", "c"]
    for name in ("cold.jsonl", "warm.jsonl"):
        rec = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        assert rec["texts"] == texts
    (line,) = cache.read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["texts"] == texts


@pytest.mark.parametrize("api_key", [None], ids=["closed-port"])
def test_http_transport_failure_is_a_retried_connection_error(monkeypatch,
                                                              api_key):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    # nothing listens on port now
    monkeypatch.setattr(sampler, "BACKOFF", 0.01)
    backend = CountingBackend(HttpBackend(f"http://127.0.0.1:{port}", "m",
                                          api_key=api_key))
    with pytest.raises(BackendError) as err:
        sample(["x"], get_profile("eval"), backend, cache=None,
               jobs=STAGE.jobs, max_requests=None)
    assert str(err.value).startswith("retries exhausted (connection error: ")
    assert backend.requests == sampler.MAX_RETRIES + 1


def test_http_rejects_an_api_key_that_is_no_header_value(server, tmp_path,
                                                         capsys, monkeypatch):
    # found at construction, not after every retry and its back-off
    for key in ("sekrit\n", "sek rit", "\tsekrit", "sekr\u00eft", "k\x7f"):
        with pytest.raises(InvalidSpecError) as err:
            HttpBackend("http://127.0.0.1:9", "m", api_key=key)
        assert key not in str(err.value) and key.strip() not in str(err.value)
    base, handler = server
    problems = tmp_path / "problems.jsonl"
    assert main(["generate", "--tasks", "cycle", "--count", "1", "--seed", "3",
                 "--split", "test", "--out", str(problems)]) == 0
    out = tmp_path / "paths.jsonl"
    capsys.readouterr()
    monkeypatch.setenv("GRAPHCORPUS_API_KEY", "sekrit\n")
    rc = main(["annotate", "--problems", str(problems), "--backend", "http",
               "--base-url", base, "--model", "m", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "API key" in err and "sekrit" not in err
    assert handler.seen == [] and not out.exists()


def test_the_stages_send_the_api_key_from_the_environment(server, tmp_path,
                                                          monkeypatch):
    base, handler = server
    handler.reply = lambda prompt: (200, _choices("a", "b", "c"))
    problems = tmp_path / "problems.jsonl"
    assert main(["generate", "--tasks", "cycle", "--count", "1", "--seed", "3",
                 "--split", "test", "--out", str(problems)]) == 0
    monkeypatch.setenv("GRAPHCORPUS_API_KEY", "sekrit")
    http = ["--problems", str(problems), "--backend", "http", "--base-url",
            base, "--model", "m"]
    assert main(["annotate", *http, "--out", str(tmp_path / "paths")]) == 0
    assert main(["evaluate", *http, "--out", str(tmp_path / "report")]) == 0
    monkeypatch.delenv("GRAPHCORPUS_API_KEY")
    assert main(["evaluate", *http, "--out", str(tmp_path / "report")]) == 0
    assert [auth for auth, _ in handler.seen] == ["Bearer sekrit"] * 2 + [None]


@pytest.mark.parametrize("failure", [(200, _choices("cut"), 10), (None, {})],
                         ids=["body-cut-short", "closed-with-no-reply"])
def test_http_retries_a_broken_reply(server, monkeypatch, failure):
    base, handler = server
    handler.script += [failure, (200, _choices("ok"))]
    monkeypatch.setattr(sampler, "BACKOFF", 0.01)
    backend = CountingBackend(HttpBackend(base, "m", api_key=None))
    assert sample(["x"], get_profile("eval"), backend, cache=None,
                  jobs=STAGE.jobs, max_requests=None) == [["ok"]]
    assert backend.requests == 2 and len(handler.seen) == 2


@pytest.mark.parametrize("url", ["localhost:8000", "127.0.0.1:8000",
                                 "ftp://host", "http://", "http://[::1", ""])
def test_http_rejects_a_base_url_that_is_not_http_host(url):
    with pytest.raises(InvalidSpecError) as err:
        HttpBackend(url, "m", api_key=None)
    assert repr(url) in str(err.value)


def _fresh_python(code, *args):
    """Run code in a new interpreter that finds the package under test."""
    src = os.path.dirname(os.path.dirname(graphcorpus.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_package_import_loads_neither_numpy_nor_requests():
    # only HttpBackend.generate needs an HTTP client and only the selector's
    # numeric code needs numpy; importing the package loads neither, and
    # networkx, a test-only dependency, never; sample starts its own
    # threads, so no stage pays for concurrent.futures. Records are
    # NamedTuples, only a torn cache line logs and only generate solves, so
    # no stage but generate loads dataclasses, logging or the solvers
    out = _fresh_python("import sys, graphcorpus, graphcorpus.cli; "
                        "print([m for m in ('numpy', 'requests', 'networkx', "
                        "'urllib.request', 'http.client', "
                        "'concurrent.futures', 'dataclasses', 'inspect', "
                        "'logging', 'graphcorpus.solvers', "
                        "'graphcorpus.generate') if m in sys.modules])")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    # the package root exports nothing, so importing it loads no module
    out = _fresh_python("import sys, graphcorpus; print([m for m in "
                        "sys.modules if m.startswith('graphcorpus.')])")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_every_stage_runs_without_numpy(tmp_path):
    # numpy = None in sys.modules makes any import of it raise ImportError
    code = """if True:
        import os, sys
        sys.modules["numpy"] = None
        from graphcorpus.cli import main
        root = sys.argv[1]
        problems = os.path.join(root, "problems.jsonl")
        paths = os.path.join(root, "paths.jsonl")
        stub = ["--backend", "stub", "--stub-error-rate", "0.4", "--seed", "3"]
        for argv in (
                ["generate", "--tasks", "cycle,shortest", "--count", "2",
                 "--seed", "3", "--split", "test", "--out", problems],
                ["annotate", "--problems", problems, "--profile", "augment",
                 *stub, "--out", paths],
                ["select", "--problems", problems, "--paths", paths,
                 "--seed", "3", "--out", os.path.join(root, "sft.jsonl")],
                ["dpo", "--problems", problems, "--paths", paths,
                 "--out", os.path.join(root, "dpo.jsonl")],
                ["audit", "--problems", problems, "--paths", paths,
                 "--out", os.path.join(root, "audit.jsonl")],
                ["evaluate", "--problems", problems, *stub,
                 "--out", os.path.join(root, "report")],
                ["stats", "--problems", problems]):
            assert main(argv) == 0, argv
    """
    out = _fresh_python(code, str(tmp_path))
    assert out.returncode == 0, out.stderr
    for name in ("sft.jsonl", "dpo.jsonl"):
        assert (tmp_path / name).read_text(encoding="utf-8").strip(), name


def test_http_stages_run_without_requests(tmp_path, server):
    # requests = None in sys.modules makes any import of it raise ImportError
    base, handler = server
    handler.script += [(200, _choices("one", "two", "three")),
                       (200, _choices("The answer is yes."))]
    code = """if True:
        import os, sys
        sys.modules["requests"] = None
        from graphcorpus.cli import main
        root, base = sys.argv[1:]
        problems = os.path.join(root, "problems.jsonl")
        http = ["--backend", "http", "--base-url", base, "--model", "m"]
        for argv in (
                ["generate", "--tasks", "cycle", "--count", "1", "--seed", "3",
                 "--split", "test", "--out", problems],
                ["annotate", "--problems", problems, *http,
                 "--out", os.path.join(root, "paths.jsonl")],
                ["evaluate", "--problems", problems, *http,
                 "--out", os.path.join(root, "report")]):
            assert main(argv) == 0, argv
    """
    out = _fresh_python(code, str(tmp_path), base)
    assert out.returncode == 0, out.stderr
    assert len(handler.seen) == 2
    paths = json.loads((tmp_path / "paths.jsonl").read_text(encoding="utf-8"))
    assert paths["texts"] == ["one", "two", "three"]


def _declared_dependencies(pyproject):
    """Distribution names in [project] dependencies, read without a TOML
    parser (Python 3.10 has no tomllib)."""
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject,
                        re.MULTILINE | re.DOTALL).group(1)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project,
                     re.MULTILINE | re.DOTALL).group(1)
    return {re.match(r"[A-Za-z0-9._-]+", d).group(0)
            for d in re.findall(r'"([^"]*)"', deps)}


def test_declared_dependencies_match_imports():
    pkg = os.path.dirname(graphcorpus.__file__)
    imported = set()
    for name in os.listdir(pkg):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"graphcorpus"}
    root = os.path.dirname(os.path.dirname(pkg))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        declared = _declared_dependencies(fh.read())
    assert third_party == declared == set()
