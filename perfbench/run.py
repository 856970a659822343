"""graphcorpus benchmark: one named workload, one seed, one result line.

    python3 perfbench/run.py --workload distill-augment --seed 3 \
        --seconds 45 --trace 0

Run from anywhere; the program under test is the `src/` tree beside this
directory. With `--trace 0` the workload's set-up runs several times and
its timed stages repeat, each as its own `python -m graphcorpus.cli`
process, until `--seconds` have passed; every end-to-end metric is the
median over set-ups or repetitions. With `--trace 1` the set-up and timed
stages run once untraced and once in-process with spans around each
module's calls, and the per-layer metrics are printed. Either way every output is checked
for correctness, its sha256 is printed, and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Working files go to `.perfbench/<workload>/` under the repository root.

What the benchmark cannot control: it pins no CPU, drops no file cache and
fixes no clock frequency, because it acts only on its own processes. On a
shared 2-vCPU virtual machine a fixed CPU-bound loop ran up to 25 % slower
or faster from one second to the next, and select on one input took
1.8 s to 3.2 s across four repetitions of one run. Medians over
repetitions absorb part of that; the bounds in BENCHMARK.json allow for
the rest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7         # set-ups per run: the run's seed and a panel
MAX_REPEATS = 25          # timed repetitions per run, at most
IMPORT_SAMPLES = 5        # fresh processes timing `import graphcorpus.cli`
BUDGET_S = 150            # a run stops starting work after this long
END_TO_END = [("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB")]
# Per-stage wall times of the untraced pass lead the per-layer metrics;
# import time and tracing overhead are measured here, the rest from spans.
PER_LAYER = ([(f"stage.{m}", "s") for m in workloads.STAGE_METRICS]
             + [("cli.import_s", "s"), ("trace.overhead_ratio", "ratio")]
             + [(name, unit) for name, unit, _ in
                tracing.metric_table(workloads.TASKS)])
NOTE = ("no CPU pinning, no file-cache drop and no frequency control: the "
        "benchmark acts only on its own processes, so other load on the "
        "machine shows as spread between runs")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "graphcorpus", "cli.py")):
    fail(f"no graphcorpus sources under {SRC}")

# The mock server is on loopback; no proxy may sit between it and a client.
os.environ.update(NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")
ENV = dict(os.environ, PYTHONPATH=SRC)


class Run:
    """Counts operations and their failures; holds the run's deadline.

    An operation is one stage invocation. It fails when it exits non-zero
    or when its output fails a check."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        """Count one invocation, and its failure unless ok."""
        self.attempted += 1
        self.expect(ok, what)

    def expect(self, ok: bool, what: str) -> None:
        """Count a failed check of an invocation already counted, keeping
        failed at most attempted."""
        if not ok:
            self.failed = min(self.failed + 1, self.attempted)
            self.errors.append(what)

    def spawn(self, argv: list[str], cwd: str, log: str) -> tuple[float, float, int]:
        """Run one process; return wall seconds, peak RSS in MB and exit code."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(log, "ab") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=out,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode

    def stage(self, argv: list[str], cwd: str, label: str) -> tuple[float, float]:
        wall, rss, code = self.spawn(
            [sys.executable, "-m", "graphcorpus.cli", *argv], cwd,
            os.path.join(self.workdir, "stages.log"))
        self.record(code == 0, f"{label}: exit code {code} (see stages.log)")
        return wall, rss


class MockServer:
    """The mock model server process, started on an ephemeral port."""

    def __init__(self, problems: str, seed: int, log: str):
        start = time.perf_counter()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "mockserver.py"),
             "--problems", problems, "--seed", str(seed)],
            env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError("mock server did not start (see server.log)")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self.start_s = time.perf_counter() - start

    def _call(self, path: str, data: bytes | None = None) -> dict:
        req = urllib.request.Request(self.url + path, data=data)
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(req, timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/reset", b"")

    def stats(self) -> dict:
        return self._call("/stats")

    def stop(self) -> None:
        """Close the server's standard input, which stops it; wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def argv_of(stage, seed: int, url: str | None) -> list[str]:
    return [a.replace("{seed}", str(seed)).replace("{url}", url or "")
            for a in stage.argv]


def sha256_of(path: str) -> str:
    """Digest of a file, or of a directory's files in name order."""
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(path, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
        return h.hexdigest()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def record_count(path: str) -> int:
    if not os.path.isfile(path) or not path.endswith(".jsonl"):
        return 0
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def set_up(run: Run, wl, seed: int, directory: str,
           walls: dict[str, list[float]]) -> tuple[float, MockServer | None]:
    """Build the inputs for `seed` in directory and start the mock server,
    if the workload has one; append each set-up stage's wall time to
    walls. Return the set-up time and the running server (or None)."""
    os.makedirs(directory, exist_ok=True)
    total = 0.0
    for st in wl.setup:
        remove(os.path.join(directory, st.output))
        wall, _ = run.stage(argv_of(st, seed, None), directory,
                            "set-up " + st.metric)
        walls.setdefault(st.metric, []).append(wall)
        total += wall
    server = None
    if wl.server:
        server = MockServer(os.path.join(directory, wl.setup[0].output), seed,
                            os.path.join(run.workdir, "server.log"))
        total += server.start_s
    return total, server


def timed_pass(run: Run, wl, seed: int, directory: str,
               url: str | None) -> dict[str, tuple[float, float]]:
    """Run the timed stages once as processes: metric -> (wall, rss)."""
    for name in [st.output for st in wl.timed] + list(wl.fresh):
        remove(os.path.join(directory, name))
    return {st.metric: run.stage(argv_of(st, seed, url), directory, st.metric)
            for st in wl.timed}


def verify(run: Run, wl, size: str, directory: str) -> dict[str, str]:
    """Check every output in a child process; return output -> sha256."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "check.py"), "--workload", wl.name,
         "--size", size, directory], env=ENV, capture_output=True, text=True,
        timeout=max(run.deadline - time.monotonic(), 1.0))
    if out.returncode != 0:
        run.expect(False, f"check.py exited {out.returncode}: {out.stderr[-500:]}")
    else:
        for output, errors in json.loads(out.stdout).items():
            run.expect(not errors, "; ".join(errors))
    outputs = [st.output for st in wl.setup + wl.timed]
    return {o: sha256_of(os.path.join(directory, o)) for o in outputs}


def facts(wl, seed: int, directory: str, load_start) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "workload": wl.name,
        "seed": seed,
        "records": {st.output: n for st in wl.setup + wl.timed
                    if (n := record_count(os.path.join(directory, st.output)))},
        "note": NOTE,
    }


def measure(run: Run, wl, size: str, seed: int, seconds: float) -> dict[str, float]:
    """--trace 0: set-ups and timed passes, interleaved; medians of each.

    The run's own seed is set up first; its inputs feed the timed passes.
    Set-ups for the seeds of a fixed panel, 1 to SETUP_REPEATS - 1, follow,
    one after each timed pass, in a directory of their own. How long
    generation takes depends on the draw: a few Hamilton draws per hundred
    problems exhaust the backtracking budget, and one seed's inputs took
    2.3 times as long to generate as another's. So setup_s is the median
    over the run's seed and the panel, and six of its seven set-ups are the
    same generation work on every run and every commit. Spreading the panel
    over the run lets a slow few seconds of the machine touch only one or
    two set-ups."""
    directory = os.path.join(run.workdir, "run")
    panel_dir = os.path.join(run.workdir, "panel")
    samples: dict[str, list[float]] = {}
    setup_s, server = set_up(run, wl, seed, directory, samples)
    print(f"set-up seed {seed} {setup_s:.4f} s")
    setups = [setup_s]
    panel = list(range(1, SETUP_REPEATS))
    pipeline, peak_rss = [], []
    try:
        stop_at = time.monotonic() + seconds
        while not run.failed:
            rep_start = time.monotonic()
            if server:
                server.reset()
            stages = timed_pass(run, wl, seed, directory, server and server.url)
            if run.failed:
                break
            if not pipeline:
                digests = verify(run, wl, size, directory)
                for name, digest in digests.items():
                    print(f"sha256 {name} {digest}")
            else:
                run.expect(verify_digests(wl, directory, digests),
                           "outputs differ between repetitions")
            print(f"repetition {len(pipeline)} " + " ".join(
                f"{m}={wall:.4f}" for m, (wall, _) in stages.items()))
            for m, (wall, _) in stages.items():
                samples.setdefault(m, []).append(wall)
            pipeline.append(sum(wall for wall, _ in stages.values()))
            peak_rss.append(max(rss for _, rss in stages.values()))
            if panel:
                setups.append(panel_set_up(run, wl, panel.pop(0), panel_dir, samples))
            now = time.monotonic()
            # stop where the measured time lands nearest to `seconds`
            if now + (now - rep_start) / 2 >= stop_at or now >= run.deadline \
                    or len(pipeline) >= MAX_REPEATS:
                break
        while panel and not run.failed:
            setups.append(panel_set_up(run, wl, panel.pop(0), panel_dir, samples))
    finally:
        if server:
            server.stop()
    if run.failed:
        return {}
    for m, walls in samples.items():
        print(f"stage {m} {statistics.median(walls):.6g} s")
    values = {"setup_s": statistics.median(setups)}
    values["pipeline_s"] = statistics.median(pipeline)
    values["peak_rss_mb"] = statistics.median(peak_rss)
    return values


def panel_set_up(run: Run, wl, seed: int, directory: str,
                 walls: dict[str, list[float]]) -> float:
    """One set-up of the panel; its server is stopped at once."""
    total, server = set_up(run, wl, seed, directory, walls)
    if server:
        server.stop()
    print(f"set-up seed {seed} {total:.4f} s")
    return total


def verify_digests(wl, directory: str, digests: dict[str, str]) -> bool:
    return all(sha256_of(os.path.join(directory, st.output)) == digests[st.output]
               for st in wl.timed)


def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import graphcorpus.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=ENV, check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def traced(run: Run, wl, size: str, seed: int) -> dict[str, float]:
    """--trace 1: one untraced pass, one traced in-process pass."""
    # Imported only here: the untraced benchmark process stays small, so
    # its memory high-water mark never shows in its children's peak RSS.
    sys.path.insert(0, SRC)
    from graphcorpus import cli
    from graphcorpus.config import PipelineConfig
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"graphcorpus imported from {cli.__file__}, not {SRC}")

    plain = os.path.join(run.workdir, "untraced")
    spans_dir = os.path.join(run.workdir, "traced")
    setup_walls: dict[str, list[float]] = {}
    _, server = set_up(run, wl, seed, plain, setup_walls)
    try:
        if run.failed:
            return {}
        import_s = import_seconds()
        if server:
            server.reset()
        untraced = timed_pass(run, wl, seed, plain, server and server.url)
        if run.failed:
            return {}
        digests = verify(run, wl, size, plain)
        os.makedirs(spans_dir)
        cfg = PipelineConfig()
        tracer = tracing.Tracer(cfg.tasks, cfg.rejection_attempts)
        tracing.install(tracer)
        server_counts = {}
        traced_total = 0.0
        cwd = os.getcwd()
        try:
            if server:
                server.reset()
            os.chdir(spans_dir)
            with open(os.path.join(run.workdir, "traced.log"), "a") as log, \
                    contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                for i, st in enumerate(wl.setup + wl.timed):
                    tracer.stage = i
                    start = time.perf_counter()
                    try:
                        code = cli.main(argv_of(st, seed, server and server.url))
                    except Exception as exc:  # a crash fails the stage, not the run
                        code = f"{type(exc).__name__}: {exc}"
                    if st in wl.timed:
                        traced_total += time.perf_counter() - start
                    run.record(code == 0, f"traced {st.metric}: exit code {code}")
            if server:
                server_counts = server.stats()
        finally:
            os.chdir(cwd)
            tracer.uninstall()
    finally:
        if server:
            server.stop()
    for st in wl.setup + wl.timed:
        same = sha256_of(os.path.join(spans_dir, st.output)) == digests[st.output]
        run.expect(same, f"traced {st.output} differs from the untraced output")
    for name, digest in digests.items():
        print(f"sha256 {name} {digest}")
    tracer.write(os.path.join(run.workdir, "spans.jsonl"))
    values = tracing.layer_values(tracer, server_counts)
    walls = {m: w[0] for m, w in setup_walls.items()}
    walls.update((m, wall) for m, (wall, _) in untraced.items())
    for m in workloads.STAGE_METRICS:
        values[f"stage.{m}"] = walls.get(m, 0.0)
    values["cli.import_s"] = import_s
    baseline = sum(max(wall - import_s, 1e-3) for wall, _ in untraced.values())
    values["trace.overhead_ratio"] = traced_total / baseline
    return values


def main(argv: list[str] | None = None) -> int:
    # On SIGTERM, unwind so that the stage and server processes are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description="graphcorpus benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="input sizes; 'tiny' is for the self-check")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.size)
    workdir = os.path.join(ROOT, ".perfbench", wl.name)
    remove(workdir)
    os.makedirs(workdir)
    run = Run(workdir)
    load_start = os.getloadavg()
    names = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            values = traced(run, wl, args.size, args.seed)
        else:
            values = measure(run, wl, args.size, args.seed, args.seconds)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        run.record(False, f"{type(exc).__name__}: {exc}")
        values = {}
    data_dir = os.path.join(workdir, "untraced" if args.trace else "run")
    print(json.dumps({"facts": facts(wl, args.seed, data_dir, load_start)}))
    for message in run.errors:
        print(f"FAILED {message}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names if name in values}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"error_rate {run.failed / max(run.attempted, 1):.6g} ratio")
    print(json.dumps({"correct": run.failed == 0 and len(metrics) == len(names),
                      "attempted": max(run.attempted, 1), "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
