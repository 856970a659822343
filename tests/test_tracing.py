"""The benchmark's traced run wraps named functions at the modules that call
them; a name dropped or moved in the package must fail here, not only when
the traced benchmark runs."""

import importlib.util
import os
import sys

from graphcorpus.config import PipelineConfig

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracing.py")


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # for @dataclass
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_installs_and_uninstalls(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    cfg = PipelineConfig()
    tracer = tracing.Tracer(cfg.tasks, cfg.rejection_attempts)
    try:
        tracing.install(tracer)
        sites = list(tracer._undo)
        assert sites
        for owner, attr, original in sites:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in sites:
        assert owner.__dict__[attr] is original, attr
